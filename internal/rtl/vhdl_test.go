package rtl

import (
	"strings"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/netlist"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

func TestEmitRCA(t *testing.T) {
	n, err := netlist.GenRCA(netlist.NewBuilder("rca8"), arith.Adder{Width: 8, ApproxLSBs: 4, Kind: approx.ApproxAdd5})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := EmitVHDL(&sb, n); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"entity rca8 is",
		"architecture structural of rca8",
		"a : in std_logic_vector(7 downto 0)",
		"sum : out std_logic_vector(7 downto 0)",
		"cout : out std_logic_vector(0 downto 0)",
		"xor", // accurate upper cells
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VHDL missing %q", want)
		}
	}
	if strings.Contains(out, "clk") {
		t.Error("combinational design got a clock port")
	}
}

func TestEmitFIRHasClockAndRegisters(t *testing.T) {
	n, err := pantompkins.StageNetlist(pantompkins.DER, dsp.Accurate())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := EmitVHDL(&sb, n); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"clk : in std_logic", "rising_edge(clk)", "registers : process"} {
		if !strings.Contains(out, want) {
			t.Errorf("sequential VHDL missing %q", want)
		}
	}
}

func TestEmitAllAdderFlavours(t *testing.T) {
	for _, kind := range approx.AdderKinds {
		n, err := netlist.GenRCA(netlist.NewBuilder("a"), arith.Adder{Width: 4, ApproxLSBs: 4, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := EmitVHDL(&sb, n); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(sb.String()) == 0 {
			t.Fatalf("%v: empty output", kind)
		}
	}
}

func TestEmitAllMultiplierFlavours(t *testing.T) {
	for _, kind := range approx.MultKinds {
		m := arith.Multiplier{Width: 4, ApproxLSBs: 8, Mult: kind, Add: approx.AccAdd}
		n, err := netlist.GenMultiplier(netlist.NewBuilder("m"), m)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := EmitVHDL(&sb, n); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

// TestEmittedEquationsMatchTruthTables evaluates the Boolean equations the
// emitter writes (re-expressed in Go) against the behavioural truth tables
// for every input pattern — the closest offline equivalent of simulating
// the generated VHDL.
func TestEmittedEquationsMatchTruthTables(t *testing.T) {
	and := func(xs ...uint8) uint8 {
		r := uint8(1)
		for _, x := range xs {
			r &= x
		}
		return r
	}
	or := func(xs ...uint8) uint8 {
		r := uint8(0)
		for _, x := range xs {
			r |= x
		}
		return r
	}
	not := func(x uint8) uint8 { return 1 - x }

	for i := uint8(0); i < 8; i++ {
		a, b, c := i>>2&1, i>>1&1, i&1
		type pair struct{ sum, cout uint8 }
		eq := map[approx.AdderKind]pair{}
		// The same equations emitFA writes:
		exactC := or(and(a, b), and(a, c), and(b, c))
		eq[approx.AccAdd] = pair{a ^ b ^ c, exactC}
		ama1C := or(exactC, and(not(a), b, not(c)))
		eq[approx.ApproxAdd1] = pair{and(a^b^c, not(and(not(a), b, not(c)))), ama1C}
		eq[approx.ApproxAdd2] = pair{not(exactC), exactC}
		eq[approx.ApproxAdd3] = pair{not(ama1C), ama1C}
		eq[approx.ApproxAdd4] = pair{not(a), a}
		eq[approx.ApproxAdd5] = pair{b, a}
		for kind, got := range eq {
			ws, wc := kind.Eval(a, b, c)
			if got.sum != ws || got.cout != wc {
				t.Errorf("%v equations (%d,%d,%d): got (%d,%d), want (%d,%d)",
					kind, a, b, c, got.sum, got.cout, ws, wc)
			}
		}
	}

	for ab := uint8(0); ab < 16; ab++ {
		a0, a1, b0, b1 := ab&1, ab>>1&1, ab>>2&1, ab>>3&1
		// AccMult equations as emitted.
		p0 := and(a0, b0)
		p1 := and(a1, b0) ^ and(a0, b1)
		p2 := and(a1, b1) ^ and(a1, b0, a0, b1)
		p3 := and(a0, a1, b0, b1)
		got := p3<<3 | p2<<2 | p1<<1 | p0
		if want := approx.AccMult.Eval(a0|a1<<1, b0|b1<<1); got != want {
			t.Errorf("AccMult equations a=%d b=%d: got %d, want %d", a0|a1<<1, b0|b1<<1, got, want)
		}
		// AppMultV1.
		q1 := or(and(a1, b0), and(a0, b1))
		gotV1 := and(a1, b1)<<2 | q1<<1 | p0
		if want := approx.AppMultV1.Eval(a0|a1<<1, b0|b1<<1); gotV1 != want {
			t.Errorf("AppMultV1 equations a=%d b=%d: got %d, want %d", a0|a1<<1, b0|b1<<1, gotV1, want)
		}
		// AppMultV2.
		gotV2 := and(a1, b1)<<2 | and(a0, b1)<<1 | p0
		if want := approx.AppMultV2.Eval(a0|a1<<1, b0|b1<<1); gotV2 != want {
			t.Errorf("AppMultV2 equations a=%d b=%d: got %d, want %d", a0|a1<<1, b0|b1<<1, gotV2, want)
		}
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"LPF_k8":  "LPF_k8",
		"lpf k=8": "lpf_k_8",
		"8bit":    "x8bit",
		"":        "design",
		"a-b/c":   "a_b_c",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
