package synth

import (
	"math"
	"strings"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/netlist"
)

// genRCA builds the netlist of a ripple-carry adder with ports a, b,
// cin, sum and cout.
func genRCA(t *testing.T, ad arith.Adder) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("rca")
	a, bb, cin := b.InputBus("a", ad.Width), b.InputBus("b", ad.Width), b.InputBus("cin", 1)
	sum, cout := b.RCA(ad.Kind, ad.ApproxLSBs, a, bb, cin[0])
	b.OutputBus("sum", sum)
	b.OutputBus("cout", netlist.Bus{cout})
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestAnalyzeSingleFullAdder(t *testing.T) {
	ad := arith.Adder{Width: 1, Kind: approx.AccAdd}
	r := Analyze(genRCA(t, ad))
	ch := approx.AccAdd.Characteristics()
	if r.NumCells != 1 {
		t.Fatalf("cells = %d, want 1", r.NumCells)
	}
	if r.Area != ch.Area || r.Power != ch.Power || r.Delay != ch.Delay {
		t.Errorf("report %+v does not match cell characteristics %+v", r, ch)
	}
	if math.Abs(r.Energy-ch.Power*ch.Delay) > 1e-9 {
		t.Errorf("energy %v != P*D %v", r.Energy, ch.Power*ch.Delay)
	}
}

func TestAnalyzeRCA32RippleDelay(t *testing.T) {
	// The critical path of an accurate 32-bit RCA is the 32-cell carry
	// ripple.
	r := Analyze(genRCA(t, arith.Adder{Width: 32, Kind: approx.AccAdd}))
	ch := approx.AccAdd.Characteristics()
	if want := 32 * ch.Delay; math.Abs(r.Delay-want) > 1e-9 {
		t.Errorf("delay = %v, want %v", r.Delay, want)
	}
	if want := 32 * ch.Power; math.Abs(r.Power-want) > 1e-9 {
		t.Errorf("power = %v, want %v", r.Power, want)
	}
}

func TestApproximationShortensCriticalPath(t *testing.T) {
	// AMA5 cells are zero-delay wiring: approximating k LSBs must cut the
	// ripple path proportionally (after optimisation dissolves them).
	base, err := AnalyzeOptimized(genRCA(t, arith.Adder{Width: 32, Kind: approx.AccAdd}), nil)
	if err != nil {
		t.Fatal(err)
	}
	app, err := AnalyzeOptimized(genRCA(t, arith.Adder{Width: 32, ApproxLSBs: 16, Kind: approx.ApproxAdd5}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(app.Delay < base.Delay) || !(app.Power < base.Power) {
		t.Errorf("approximation did not reduce delay/power: base %+v, approx %+v", base, app)
	}
	red := Reductions(base, app)
	if red.Energy < red.Power || red.Energy < red.Delay {
		t.Errorf("energy reduction %v should compound power %v and delay %v", red.Energy, red.Power, red.Delay)
	}
	if math.Abs(red.Delay-2.0) > 1e-9 {
		t.Errorf("delay reduction = %v, want 2.0 (half the ripple removed)", red.Delay)
	}
}

func TestReductionsFullyDissolvedDesign(t *testing.T) {
	base, err := AnalyzeOptimized(genRCA(t, arith.Adder{Width: 32, Kind: approx.AccAdd}), nil)
	if err != nil {
		t.Fatal(err)
	}
	app, err := AnalyzeOptimized(genRCA(t, arith.Adder{Width: 32, ApproxLSBs: 32, Kind: approx.ApproxAdd5}), nil)
	if err != nil {
		t.Fatal(err)
	}
	red := Reductions(base, app)
	if !math.IsInf(red.Energy, 1) {
		t.Errorf("fully dissolved design energy reduction = %v, want +Inf", red.Energy)
	}
}

func TestRegistersExcludedFromPowerIncludedInArea(t *testing.T) {
	spec := netlist.MovingSumSpec{
		Taps: 4, InWidth: 8, AccWidth: 16,
		OutShift: 0, OutWidth: 16,
		Add: arith.Adder{Width: 16, Kind: approx.AccAdd},
	}
	n, err := netlist.GenMovingSum(netlist.NewBuilder("mwi"), spec)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(n)
	if r.NumRegisters != 3*8 {
		t.Fatalf("registers = %d, want 24", r.NumRegisters)
	}
	wantPower := float64(3*16) * approx.AccAdd.Characteristics().Power
	if math.Abs(r.Power-wantPower) > 1e-6 {
		t.Errorf("power %v includes registers, want %v (adders only)", r.Power, wantPower)
	}
	wantArea := float64(3*16)*approx.AccAdd.Characteristics().Area + float64(24)*approx.RegisterChar.Area
	if math.Abs(r.Area-wantArea) > 1e-6 {
		t.Errorf("area = %v, want %v (registers included)", r.Area, wantArea)
	}
}

func TestRegistersBreakTimingPaths(t *testing.T) {
	// Two adders separated by a register: critical path is one adder, not
	// two.
	b := netlist.NewBuilder("pipe")
	x := b.InputBus("x", 1)
	y := b.InputBus("y", 1)
	s1, _ := b.FullAdder(approx.AccAdd, x[0], y[0], netlist.Const0)
	q := b.Register(netlist.Bus{s1})
	s2, _ := b.FullAdder(approx.AccAdd, q[0], y[0], netlist.Const0)
	b.OutputBus("z", netlist.Bus{s2})
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(n)
	if want := approx.AccAdd.Characteristics().Delay; math.Abs(r.Delay-want) > 1e-9 {
		t.Errorf("pipelined delay = %v, want single-stage %v", r.Delay, want)
	}
}

func TestFormatReport(t *testing.T) {
	r := Analyze(genRCA(t, arith.Adder{Width: 8, ApproxLSBs: 4, Kind: approx.ApproxAdd2}))
	s := FormatReport(r)
	for _, want := range []string{"area", "power", "delay", "energy", "AccAdd", "ApproxAdd2"} {
		if !strings.Contains(s, want) {
			t.Errorf("FormatReport missing %q:\n%s", want, s)
		}
	}
}
