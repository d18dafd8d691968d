package main

import (
	_ "embed"
	"fmt"
	"os"
	"sort"
	"strings"
)

// goldenText holds the digest of every design-flow output on seed 1, one
// "<workload> <input key> <digest>" line each. Rewrite it with
// -update-golden after a change that is meant to alter the outputs.
//
//go:embed testdata/golden-seed1.txt
var goldenText string

var goldenDigests = parseGolden(goldenText)

func parseGolden(text string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && !strings.HasPrefix(f[0], "#") {
			out[f[0]+" "+f[1]] = f[2]
		}
	}
	return out
}

// updateGolden replaces workload's lines in the golden file at path with
// the digests the run observed.
func updateGolden(path, workload string, fx fixture) error {
	d, ok := fx.(interface{ digestsByKey() map[string]string })
	if !ok {
		return nil
	}
	old, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	var keep, add []string
	for _, line := range strings.Split(strings.TrimRight(string(old), "\n"), "\n") {
		if line != "" && !strings.HasPrefix(line, workload+" ") {
			keep = append(keep, line)
		}
	}
	for k, v := range d.digestsByKey() {
		add = append(add, fmt.Sprintf("%s %s %s", workload, k, v))
	}
	sort.Strings(add)
	return os.WriteFile(path, []byte(strings.Join(append(keep, add...), "\n")+"\n"), 0o644)
}
