package main

import (
	"strings"
	"testing"
)

// TestRunRejectsOutOfRangeLSBs: every nonzero -lsbs count reaches the
// configuration, so a negative count fails like an oversized one instead
// of running the accurate stage.
func TestRunRejectsOutOfRangeLSBs(t *testing.T) {
	for _, lsbs := range []string{"-2,0,0,0,0", "0,0,-1,0,0", "99,0,0,0,0"} {
		err := run(0, 4000, "", lsbs, "ApproxAdd5", "AppMultV1", false)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("-lsbs %s: error %v, want an out-of-range error", lsbs, err)
		}
	}
	if err := run(0, 4000, "", "2,0,0,0,0", "ApproxAdd5", "AppMultV1", false); err != nil {
		t.Errorf("-lsbs 2,0,0,0,0: %v", err)
	}
}
