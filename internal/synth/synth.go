// Package synth produces synthesis-style reports — area, power, critical
// path delay and per-operation energy — over the cell netlists of package
// netlist, standing in for the paper's Synopsys Design Compiler tool-flow.
//
// Accounting rules:
//
//   - Area is the sum of all instantiated cell areas, registers included.
//   - Power is the sum of combinational cell powers; registers are
//     excluded, because the paper's reductions are quoted over the
//     arithmetic blocks targeted for approximation.
//   - Delay is the longest weighted path through combinational cells;
//     register outputs start paths at t=0 and register D pins terminate
//     paths.
//   - Energy = Power x Delay, the same product the elementary rows of the
//     paper's Table 1 satisfy (uW x ns = fJ). Compounding power and
//     latency gains is what gives approximation its super-linear energy
//     leverage.
package synth

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/netlist"
)

// Report summarises the physical properties of one netlist.
type Report struct {
	Name         string
	NumCells     int // combinational cells (FA, MULT2, INV)
	NumRegisters int
	Area         float64 // um^2, registers included
	Power        float64 // uW, combinational only
	Delay        float64 // ns, critical path
	Energy       float64 // fJ per operation, Power*Delay
	CellCounts   map[string]int
}

// cellChar returns the characterisation of one cell instance.
func cellChar(c *netlist.Cell) approx.Characteristics {
	switch c.Kind {
	case netlist.CellFA:
		return c.Add.Characteristics()
	case netlist.CellMult2:
		return c.Mul.Characteristics()
	case netlist.CellInv:
		return approx.InverterChar
	case netlist.CellReg:
		return approx.RegisterChar
	default:
		return approx.Characteristics{}
	}
}

// Analyze reports on the netlist exactly as built (no optimisation).
func Analyze(n *netlist.Netlist) Report {
	r := Report{Name: n.Name, CellCounts: n.CellCounts()}
	arrival := make([]float64, n.NumNets)
	maxArrival := 0.0
	for i := range n.Cells {
		c := &n.Cells[i]
		ch := cellChar(c)
		r.Area += ch.Area
		if c.Kind == netlist.CellReg {
			r.NumRegisters++
			// D pin terminates a path; Q pin starts one at t=0.
			if t := arrival[c.In[0]]; t > maxArrival {
				maxArrival = t
			}
			arrival[c.Out[0]] = 0
			continue
		}
		r.NumCells++
		r.Power += ch.Power
		t := 0.0
		for _, in := range c.In {
			if arrival[in] > t {
				t = arrival[in]
			}
		}
		t += ch.Delay
		for _, out := range c.Out {
			arrival[out] = t
		}
		if t > maxArrival {
			maxArrival = t
		}
	}
	r.Delay = maxArrival
	r.Energy = r.Power * r.Delay
	return r
}

// AnalyzeOptimized runs the synthesis cleanup passes (constant propagation,
// then dead-cell elimination) and reports on the optimised netlist. This
// mirrors what a logic synthesiser does with constant coefficient operands
// before reporting.
func AnalyzeOptimized(n *netlist.Netlist) (Report, error) {
	opt, err := netlist.Optimize(n)
	if err != nil {
		return Report{}, err
	}
	return Analyze(opt), nil
}

// ActivityWeight re-weights a precomputed activity-blind report of n (the
// output of Analyze) by the measured switching activity, the way ASIC
// power tools weight dynamic power by simulated activity: each cell's
// library power is scaled by its activity relative to a 0.5 reference
// toggle rate. Cells that never toggle (sign-extension, constant-dominated
// logic) contribute no power, which is how datapath width trimming enters
// the energy model. Splitting the area/delay analysis from the activity
// weighting lets callers that hold both the structural report and the
// activity — the energy characterization cache — serve the activity-blind
// (optimised-policy) report and the activity-weighted one from a single
// analysis instead of re-walking the netlist. base is returned with only
// Power and Energy replaced; Area, Delay and the cell accounting carry
// over unchanged.
func ActivityWeight(base Report, n *netlist.Netlist, act netlist.Activity) Report {
	const refActivity = 0.5
	power := 0.0
	for i := range n.Cells {
		c := &n.Cells[i]
		if c.Kind == netlist.CellReg {
			continue
		}
		power += cellChar(c).Power * act.PerCell[i] / refActivity
	}
	base.Power = power
	base.Energy = base.Power * base.Delay
	return base
}

// Reduction holds baseline/approximate ratios for each physical metric
// (the "magnitude reductions" y-axes of the paper's Figs 2 and 8). A ratio
// of +Inf means the approximate design dissolved entirely.
type Reduction struct {
	Area   float64
	Power  float64
	Delay  float64
	Energy float64
}

func ratio(base, app float64) float64 {
	if app == 0 {
		if base == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return base / app
}

// Reductions compares an approximate design's report against its accurate
// baseline.
func Reductions(baseline, approximate Report) Reduction {
	return Reduction{
		Area:   ratio(baseline.Area, approximate.Area),
		Power:  ratio(baseline.Power, approximate.Power),
		Delay:  ratio(baseline.Delay, approximate.Delay),
		Energy: ratio(baseline.Energy, approximate.Energy),
	}
}

// FormatReport renders a report as an aligned text block (the tool-flow's
// "detailed area, power, latency, and energy reports").
func FormatReport(r Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "design %-28s cells %6d  regs %5d\n", r.Name, r.NumCells, r.NumRegisters)
	fmt.Fprintf(&sb, "  area   %12.2f um^2\n", r.Area)
	fmt.Fprintf(&sb, "  power  %12.2f uW\n", r.Power)
	fmt.Fprintf(&sb, "  delay  %12.3f ns\n", r.Delay)
	fmt.Fprintf(&sb, "  energy %12.3f fJ/op\n", r.Energy)
	names := make([]string, 0, len(r.CellCounts))
	for name := range r.CellCounts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "  %-12s x%d\n", name, r.CellCounts[name])
	}
	return sb.String()
}
