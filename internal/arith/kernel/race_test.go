//go:build race

package kernel

func init() { raceBuild = true }
