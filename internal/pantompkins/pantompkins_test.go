package pantompkins

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/metrics"
	"github.com/xbiosip/xbiosip/internal/netlist"
)

func record(t *testing.T, n int) *ecg.Record {
	t.Helper()
	rec, err := ecg.NSRDBRecord(0, n)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func cfgWith(ks [NumStages]int) Config {
	var c Config
	for i, s := range Stages {
		if ks[i] > 0 {
			c.Stage[s] = dsp.ArithConfig{LSBs: ks[i], Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
		}
	}
	return c
}

func TestAccuratePipelineDetectsAllBeats(t *testing.T) {
	rec := record(t, 12000)
	p, err := New(AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := p.Process(rec)
	m, err := metrics.MatchPeaks(rec.Annotations, res.Detection.Peaks, 30)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sensitivity() != 1 || m.PPV() != 1 {
		t.Errorf("accurate detection imperfect: %+v", m)
	}
}

func TestStageModuleCountsMatchPaper(t *testing.T) {
	// Paper §2/§4.2: LPF 11 taps (11 multipliers), HPF 32 taps (32
	// multipliers, 31 adders), DER coefficient magnitudes 2 and 1, MWI
	// adders only.
	if len(LPFCoeffs) != 11 {
		t.Errorf("LPF taps = %d, want 11", len(LPFCoeffs))
	}
	if len(HPFCoeffs) != 32 {
		t.Errorf("HPF taps = %d, want 32", len(HPFCoeffs))
	}
	if len(DERCoeffs) != 5 {
		t.Errorf("DER taps = %d, want 5", len(DERCoeffs))
	}
	for _, c := range DERCoeffs {
		if c < -2 || c > 2 {
			t.Errorf("DER coefficient %d exceeds magnitude 2", c)
		}
	}
	sum := int64(0)
	for _, c := range LPFCoeffs {
		sum += c
	}
	if sum != 36 {
		t.Errorf("LPF gain = %d, want 36 (classic Pan-Tompkins)", sum)
	}
	sum = 0
	for _, c := range HPFCoeffs {
		sum += c
	}
	if sum != 0 {
		t.Errorf("HPF DC gain = %d, want 0 (high-pass rejects DC)", sum)
	}
}

func TestHPFRejectsDC(t *testing.T) {
	p, err := New(AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	dc := make([]int16, 2000)
	for i := range dc {
		dc[i] = 5000
	}
	out := p.Run(dc)
	// After settling, the filtered output of a constant input is zero.
	for i := 200; i < len(out.Filtered); i++ {
		if out.Filtered[i] != 0 {
			t.Fatalf("HPF output %d at sample %d for DC input", out.Filtered[i], i)
		}
	}
}

func TestLPFThresholdMatchesPaper(t *testing.T) {
	// Paper Fig 2: the LPF tolerates 14 approximated LSBs with 100%
	// detection accuracy and collapses at 16.
	rec := record(t, 12000)
	at := func(k int) float64 {
		p, err := New(cfgWith([NumStages]int{k, 0, 0, 0, 0}))
		if err != nil {
			t.Fatal(err)
		}
		res := p.Process(rec)
		m, err := metrics.MatchPeaks(rec.Annotations, res.Detection.Peaks, 30)
		if err != nil {
			t.Fatal(err)
		}
		return m.Sensitivity()
	}
	if acc := at(14); acc != 1 {
		t.Errorf("LPF k=14 accuracy %.2f, want 1.0 (paper threshold)", acc)
	}
	if acc := at(16); acc >= 0.9 {
		t.Errorf("LPF k=16 accuracy %.2f, want collapse below 0.9", acc)
	}
}

func TestMWIExtremeTolerance(t *testing.T) {
	// Paper §4.2: the MWI stage tolerates 16 approximated LSBs.
	rec := record(t, 12000)
	p, err := New(cfgWith([NumStages]int{0, 0, 0, 0, 16}))
	if err != nil {
		t.Fatal(err)
	}
	res := p.Process(rec)
	m, err := metrics.MatchPeaks(rec.Annotations, res.Detection.Peaks, 30)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sensitivity() != 1 {
		t.Errorf("MWI k=16 accuracy %.3f, want 1.0", m.Sensitivity())
	}
}

func TestB9FullAccuracy(t *testing.T) {
	// The paper's headline design B9 detects all peaks.
	rec := record(t, 12000)
	p, err := New(cfgWith([NumStages]int{10, 12, 2, 8, 16}))
	if err != nil {
		t.Fatal(err)
	}
	res := p.Process(rec)
	m, err := metrics.MatchPeaks(rec.Annotations, res.Detection.Peaks, 30)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sensitivity() != 1 {
		t.Errorf("B9 accuracy %.3f, want 1.0 (paper: 0%% loss)", m.Sensitivity())
	}
}

func TestConfigValidation(t *testing.T) {
	var c Config
	c.Stage[LPF].LSBs = -1
	if err := c.Validate(); err == nil {
		t.Error("negative LSBs accepted")
	}
	c = Config{}
	c.Stage[SQR].LSBs = 40
	if err := c.Validate(); err == nil {
		t.Error("oversized LSBs accepted")
	}
	if _, err := New(c); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestConfigString(t *testing.T) {
	c := cfgWith([NumStages]int{10, 12, 2, 8, 16})
	if got := c.String(); got != "LPF10 HPF12 DER2 SQR8 MWI16" {
		t.Errorf("String = %q", got)
	}
}

func TestStageNetlistsGenerate(t *testing.T) {
	for _, s := range Stages {
		for _, cfg := range []dsp.ArithConfig{
			{},
			{LSBs: 8, Add: approx.ApproxAdd5, Mul: approx.AppMultV1},
		} {
			n, err := StageNetlist(s, cfg)
			if err != nil {
				t.Fatalf("StageNetlist(%v, %v): %v", s, cfg, err)
			}
			if err := n.Validate(); err != nil {
				t.Fatalf("netlist %v invalid: %v", s, err)
			}
			nc, err := StageNetlistCombinational(s, cfg)
			if err != nil {
				t.Fatalf("combinational %v: %v", s, err)
			}
			if nc.NumRegisters() != 0 {
				t.Errorf("combinational %v netlist has registers", s)
			}
		}
	}
}

// TestFoldedStageNetlistsMatchConstProp pins the folding builder, and its
// constant-multiplier templates, before dead-cell elimination renumbers
// any net: for every stage at every LSB count up to its bound and every
// adder x multiplier kind, the combinational netlist built folded equals
// ConstProp of the plain build cell for cell and net for net, the order
// synth sums area and power in. Under -short only every third
// configuration runs.
func TestFoldedStageNetlistsMatchConstProp(t *testing.T) {
	for _, s := range Stages {
		for _, add := range approx.AdderKinds {
			t.Run(fmt.Sprintf("%v/%v", s, add), func(t *testing.T) {
				t.Parallel()
				for k := 0; k <= MaxLSBs[s]; k++ {
					for _, mul := range approx.MultKinds {
						if testing.Short() && (k+int(mul))%3 != 0 {
							continue
						}
						cfg := dsp.ArithConfig{LSBs: k, Add: add, Mul: mul}
						plain, err := stageNetlist(s, cfg, true, netlist.NewBuilder)
						if err != nil {
							t.Fatal(err)
						}
						want, err := netlist.ConstProp(plain, nil)
						if err != nil {
							t.Fatal(err)
						}
						got, err := StageNetlistCombinational(s, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%+v: folded build differs from ConstProp (%d vs %d cells, %d vs %d nets)",
								cfg, len(got.Cells), len(want.Cells), got.NumNets, want.NumNets)
						}
					}
				}
			})
		}
	}
}

// BenchmarkStageNetlist measures the netlist half of a cold energy
// characterization: per op, one stage's folded combinational build plus
// DeadCellElim, the AMA5/AppMultV1 configuration's LSB count cycling from
// 0 to the stage's bound.
func BenchmarkStageNetlist(b *testing.B) {
	for _, s := range Stages {
		b.Run(s.String(), func(b *testing.B) {
			k := 0
			for b.Loop() {
				cfg := dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
				n, err := StageNetlistCombinational(s, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := netlist.DeadCellElim(n); err != nil {
					b.Fatal(err)
				}
				k = (k + 1) % (MaxLSBs[s] + 1)
			}
		})
	}
}

func TestMWINetlistHasNoMultipliers(t *testing.T) {
	n, err := StageNetlist(MWI, dsp.Accurate())
	if err != nil {
		t.Fatal(err)
	}
	counts := n.CellCounts()
	for name, c := range counts {
		if c > 0 && (name == "AccMult" || name == "AppMultV1" || name == "AppMultV2") {
			t.Errorf("MWI netlist contains %s x%d", name, c)
		}
	}
}

func TestDetectorEmptyInput(t *testing.T) {
	d := Detect(nil, nil, 200)
	if len(d.Peaks) != 0 || len(d.Events) != 0 {
		t.Error("empty input produced detections")
	}
	d = Detect(make([]int64, 10), make([]int64, 5), 200)
	if len(d.Peaks) != 0 {
		t.Error("mismatched input lengths produced detections")
	}
}

func TestDetectorRefractoryPeriod(t *testing.T) {
	rec := record(t, 12000)
	p, err := New(AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := p.Process(rec)
	for i := 1; i < len(res.Detection.MWIPeaks); i++ {
		if d := res.Detection.MWIPeaks[i] - res.Detection.MWIPeaks[i-1]; d <= 40 {
			t.Fatalf("two QRS within refractory period: %d samples apart", d)
		}
	}
}

func TestDetectionPeaksSorted(t *testing.T) {
	rec := record(t, 12000)
	p, _ := New(cfgWith([NumStages]int{10, 12, 4, 8, 16}))
	res := p.Process(rec)
	for i := 1; i < len(res.Detection.Peaks); i++ {
		if res.Detection.Peaks[i] < res.Detection.Peaks[i-1] {
			t.Fatal("detected peaks not sorted")
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EventAccepted, EventNoise, EventTWave, EventMisaligned, EventSearchback}
	want := []string{"accepted", "noise", "t-wave", "misaligned", "searchback"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("EventKind %d = %q, want %q", i, k.String(), want[i])
		}
	}
}

func TestGroupDelayPositive(t *testing.T) {
	if GroupDelay() <= 0 {
		t.Error("group delay must be positive")
	}
}

func TestStageStrings(t *testing.T) {
	want := []string{"LPF", "HPF", "DER", "SQR", "MWI"}
	for i, s := range Stages {
		if s.String() != want[i] {
			t.Errorf("stage %d = %q", i, s.String())
		}
	}
}

// TestRunFromMatchesRunInto: resuming from any stage over outputs of a
// design that shares the earlier stages gives every signal bit-identical
// to a whole RunInto of the target design.
func TestRunFromMatchesRunInto(t *testing.T) {
	rec := record(t, 3000)
	target := [NumStages]int{10, 12, 2, 8, 16}
	pb, err := New(cfgWith(target))
	if err != nil {
		t.Fatal(err)
	}
	want := pb.Run(rec.Samples)
	for from := LPF; from <= NumStages; from++ {
		// prev shares target's stages before from and differs after.
		prev := target
		for s := from; s < NumStages; s++ {
			prev[s] = (prev[s] + 2) % (MaxLSBs[s] + 2)
		}
		pa, err := New(cfgWith(prev))
		if err != nil {
			t.Fatal(err)
		}
		out := pa.Run(rec.Samples)
		got := pb.RunFrom(out, rec.Samples, from)
		signals := [][2][]int64{
			{got.LowPassed, want.LowPassed}, {got.Filtered, want.Filtered},
			{got.Derivative, want.Derivative}, {got.Squared, want.Squared},
			{got.Integrated, want.Integrated},
		}
		for s, pair := range signals {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("from %v: %v output length %d, want %d", from, Stage(s), len(pair[0]), len(pair[1]))
			}
			for i := range pair[1] {
				if pair[0][i] != pair[1][i] {
					t.Fatalf("from %v: %v output[%d] = %d, RunInto %d", from, Stage(s), i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}
