package kernel

import "github.com/xbiosip/xbiosip/internal/arith"

// Hooks for the external tier test (tiers_test.go), which imports the
// explorer's packages and so cannot live in package kernel.

// ConstFits32 is the int32 bound of a full const-mul table (constFits32).
func ConstFits32(spec arith.Multiplier, c int64) bool { return constFits32(spec, c) }

// ProjFits16 is the uint16 bound of a chain projection (projFits16).
func ProjFits16(spec arith.Multiplier, w, k int, neg, round bool) bool {
	return projFits16(spec, w, k, neg, round)
}

// ProductFn returns the constant-product closure for c, MulSigned(x, c)
// bit for bit: the function every table enumerates.
func (m *Multiplier) ProductFn(c int64) func(int64) int64 { return m.productFn(c) }

// RaceBuild reports whether the race detector is on (race_test.go).
func RaceBuild() bool { return raceBuild }
