package arith_test

import (
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/arith/kernel"
)

// The pipeline multiplies through kernel's 2^Width-entry tables, which
// enumerate Multiplier.MulSigned. These tests pin the freshly built
// (uncached) table view of a Multiplier against the model it enumerates;
// kernel's TestTablesMatchReference sweeps the cached tables exhaustively.

func TestConstMulTableMatchesMultiplier(t *testing.T) {
	m := arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
	for _, c := range []int64{0, 1, -1, 2, 6, -32, 31, 12345} {
		tab, err := kernel.NewConstMulTable(m, c)
		if err != nil {
			t.Fatalf("NewConstMulTable(%d): %v", c, err)
		}
		rng := rand.New(rand.NewSource(15))
		for i := 0; i < 300; i++ {
			x := int64(int16(rng.Uint64()))
			if got, want := tab.Mul(x), m.MulSigned(x, c); got != want {
				t.Fatalf("table Mul(%d)*%d = %d, want %d", x, c, got, want)
			}
		}
		if tab.Coeff() != c {
			t.Errorf("Coeff() = %d, want %d", tab.Coeff(), c)
		}
	}
}

func TestSquareTableMatchesMultiplier(t *testing.T) {
	m := arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV2, Add: approx.ApproxAdd5}
	tab, err := kernel.NewSquareTable(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 500; i++ {
		x := int64(int16(rng.Uint64()))
		if got, want := tab.Square(x), m.MulSigned(x, x); got != want {
			t.Fatalf("Square(%d) = %d, want %d", x, got, want)
		}
	}
	if tab.Square(0) != 0 {
		t.Error("Square(0) != 0")
	}
}
