package energy

import (
	"math"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

func model(t *testing.T) *Model {
	t.Helper()
	rec, err := ecg.NSRDBRecord(0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := NewStimulus(rec)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(stim)
	m.Vectors = 200 // keep tests fast
	return m
}

func ama5(k int) dsp.ArithConfig {
	return dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
}

func ama2v2(k int) dsp.ArithConfig {
	return dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd2, Mul: approx.AppMultV2}
}

func TestStageEnergyPositive(t *testing.T) {
	m := model(t)
	for _, s := range pantompkins.Stages {
		e, err := m.StageEnergy(s, dsp.Accurate())
		if err != nil {
			t.Fatal(err)
		}
		if e <= 0 {
			t.Errorf("stage %v accurate energy %v, want > 0", s, e)
		}
	}
}

func TestApproximationReducesStageEnergy(t *testing.T) {
	m := model(t)
	for _, s := range []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF, pantompkins.MWI} {
		base, err := m.StageEnergy(s, dsp.Accurate())
		if err != nil {
			t.Fatal(err)
		}
		app, err := m.StageEnergy(s, ama5(pantompkins.MaxLSBs[s]))
		if err != nil {
			t.Fatal(err)
		}
		if !(app < base) {
			t.Errorf("stage %v: approximated energy %v not below accurate %v", s, app, base)
		}
	}
}

func TestStageEnergyMonotoneForMWI(t *testing.T) {
	// The MWI stage has no constant-folding oddities: its energy must
	// decrease monotonically with k.
	m := model(t)
	prev := math.Inf(1)
	for k := 0; k <= 16; k += 4 {
		e, err := m.StageEnergy(pantompkins.MWI, ama5(k))
		if err != nil {
			t.Fatal(err)
		}
		if e >= prev {
			t.Errorf("MWI energy at k=%d (%v) not below k-4 (%v)", k, e, prev)
		}
		prev = e
	}
}

func TestPipelineEnergyIsSumOfStages(t *testing.T) {
	m := model(t)
	cfg := pantompkins.AccurateConfig()
	total, err := m.PipelineEnergy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range pantompkins.Stages {
		e, err := m.StageEnergy(s, cfg.Stage[s])
		if err != nil {
			t.Fatal(err)
		}
		sum += e
	}
	if math.Abs(total-sum) > 1e-9 {
		t.Errorf("pipeline %v != sum of stages %v", total, sum)
	}
}

func TestPipelineReductionAccurateIsOne(t *testing.T) {
	m := model(t)
	red, err := m.PipelineReduction(pantompkins.AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(red-1) > 1e-9 {
		t.Errorf("accurate reduction = %v, want 1", red)
	}
}

func TestB9ReductionInPaperBand(t *testing.T) {
	// The paper reports ~19.7x for B9; our activity-based model must land
	// in the same order of magnitude (xbiosip fig12 prints its value).
	m := model(t)
	var b9 pantompkins.Config
	ks := []int{10, 12, 2, 8, 16}
	for i, s := range pantompkins.Stages {
		b9.Stage[s] = ama5(ks[i])
	}
	red, err := m.PipelineReduction(b9)
	if err != nil {
		t.Fatal(err)
	}
	if red < 3 || red > 60 {
		t.Errorf("B9 reduction %v outside the plausible band [3, 60]", red)
	}
}

func TestStageReportCaching(t *testing.T) {
	m := model(t)
	r1, err := m.StageReport(pantompkins.SQR, ama5(8))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.StageReport(pantompkins.SQR, ama5(8))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Energy != r2.Energy || r1.Power != r2.Power || r1.Delay != r2.Delay {
		t.Error("cached report differs")
	}
}

func TestRaspberryPiSevenOrders(t *testing.T) {
	m := model(t)
	rpi, err := m.RaspberryPiEnergy()
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.PipelineEnergy(pantompkins.AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rpi/base-RaspberryPiEnergyFactor) > 1 {
		t.Errorf("RPi factor %v, want %v", rpi/base, RaspberryPiEnergyFactor)
	}
}

func TestStimulusTooShort(t *testing.T) {
	rec, err := ecg.NSRDBRecord(0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := NewStimulus(rec)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(stim)
	m.Vectors = 100000 // longer than the record
	if _, err := m.StageEnergy(pantompkins.LPF, dsp.Accurate()); err == nil {
		t.Error("oversized vector request accepted")
	}
}

// TestInvalidWindowRejected: a window that starts before the stimulus or
// holds fewer than the activity engine's two vectors is an error for every
// stage, never a panic or a silently shifted window.
func TestInvalidWindowRejected(t *testing.T) {
	for _, c := range []struct {
		name            string
		warmup, vectors int
	}{
		{"negative warmup", -5, 200},
		{"warmup one before start", -1, 200},
		{"negative vectors", 100, -3},
		{"zero vectors", 100, 0},
		{"one vector", 100, 1},
	} {
		m := model(t)
		m.Warmup, m.Vectors = c.warmup, c.vectors
		for _, s := range pantompkins.Stages {
			if _, err := m.StageReport(s, dsp.Accurate()); err == nil {
				t.Errorf("%s: stage %v accepted warmup %d, vectors %d", c.name, s, c.warmup, c.vectors)
			}
		}
	}
}

// TestStageReportsPinned pins the energy model's numbers: every stage's
// report at the accurate configuration, at its MaxLSBs with
// ApproxAdd5/AppMultV1, and at half that with ApproxAdd2/AppMultV2 must
// match these float bits exactly (model(t): NSRDB record 0, 3000 samples,
// 200 vectors, warmup 100).
func TestStageReportsPinned(t *testing.T) {
	pinned := []struct {
		s                          pantompkins.Stage
		cfg                        dsp.ArithConfig
		area, power, delay, energy uint64
	}{
		{pantompkins.LPF, dsp.Accurate(), 0x40b1cab851eb8507, 0x407b7604037fc4c6, 0x40163d70a3d70a3c, 0x40a315dc63b63d3c},
		{pantompkins.LPF, ama5(16), 0x40841d70a3d70a40, 0x0, 0x400599999999999a, 0x0},
		{pantompkins.LPF, ama2v2(8), 0x40aceb0a3d70a3b5, 0x406a62f291d4778c, 0x4011eb851eb851ec, 0x408d8d8a8ed97ba8},
		{pantompkins.HPF, dsp.Accurate(), 0x40c120cccccccc93, 0x408dcf9f77545696, 0x402270a3d70a3d6d, 0x40c12db90329e13e},
		{pantompkins.HPF, ama5(16), 0x409a928f5c28f5b9, 0x40160e40f0688fa9, 0x401947ae147ae145, 0x40416c8a5785cda5},
		{pantompkins.HPF, ama2v2(8), 0x40bd851eb851eb1f, 0x4075425376b642fa, 0x401f1eb851eb8519, 0x40a4aca97d0c211f},
		{pantompkins.DER, dsp.Accurate(), 0x4081dd70a3d70a3d, 0x4051dbf93527c6c6, 0x400cf5c28f5c28f8, 0x407029a2d01b09a8},
		{pantompkins.DER, ama5(4), 0x408ed3333333334e, 0x405333e5dc153349, 0x4009eb851eb851ed, 0x406f1bc12c36d317},
		{pantompkins.DER, ama2v2(2), 0x40807851eb851eb6, 0x404f6c24d7ea2ea0, 0x400b5c28f5c28f5e, 0x406addbe389b6cfe},
		{pantompkins.SQR, dsp.Accurate(), 0x40b1a828f5c28f4c, 0x4059d37ba6e0403b, 0x401a8f5c28f5c28c, 0x40856f87e93a20d2},
		{pantompkins.SQR, ama5(8), 0x40af7d1eb851eb67, 0x404c1f26a4f8d8ee, 0x4015851eb851eb84, 0x4072e96dd4104f52},
		{pantompkins.SQR, ama2v2(4), 0x40b18afffffffff0, 0x4058d426e6d65f01, 0x4019c28f5c28f5c0, 0x4083fcb3cbbe7d1c},
		{pantompkins.MWI, dsp.Accurate(), 0x40c387ae147ae126, 0x408e346b22526f4b, 0x402651eb851eb84d, 0x40c5115ca5612d9c},
		{pantompkins.MWI, ama5(16), 0x40b387ae147ae12b, 0x405773eeea8ad4f3, 0x40208f5c28f5c28d, 0x408846122882e412},
		{pantompkins.MWI, ama2v2(8), 0x40c090ccccccccb5, 0x4087ccc5cd435b8e, 0x4024b851eb851eb4, 0x40bed223fe4bb542},
	}
	m := model(t)
	for _, p := range pinned {
		r, err := m.StageReport(p.s, p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := [4]uint64{math.Float64bits(r.Area), math.Float64bits(r.Power), math.Float64bits(r.Delay), math.Float64bits(r.Energy)}
		if want := [4]uint64{p.area, p.power, p.delay, p.energy}; got != want {
			t.Errorf("%v %+v: area/power/delay/energy bits %#x, want %#x", p.s, p.cfg, got, want)
		}
	}
}

func TestSensorNodes(t *testing.T) {
	nodes := SensorNodes()
	if len(nodes) != 5 {
		t.Fatalf("want 5 sensor nodes, got %d", len(nodes))
	}
	for _, n := range nodes {
		// Paper Fig 1: sensing energy at least six orders of magnitude
		// below total; processing 40-60% of total.
		if n.SensingToTotalOrders() < 5 {
			t.Errorf("%s: sensing only %v orders below total", n.Name, n.SensingToTotalOrders())
		}
		if n.ProcessingShare < 0.4 || n.ProcessingShare > 0.6 {
			t.Errorf("%s: processing share %v outside 40-60%%", n.Name, n.ProcessingShare)
		}
		if n.ProcessingJPerDay() <= 0 {
			t.Errorf("%s: non-positive processing energy", n.Name)
		}
	}
}

// BenchmarkCharacterize measures one cold characterization per op — the
// folded stage netlist, DeadCellElim, the activity simulation over the
// default 600-vector window and the activity-weighted report — for each
// stage, the AMA5/AppMultV1 configuration's LSB count cycling from 0 to
// the stage's bound. It calls characterize directly, so the
// process-wide cache is neither read nor filled.
func BenchmarkCharacterize(b *testing.B) {
	rec, err := ecg.NSRDBRecord(0, 3000)
	if err != nil {
		b.Fatal(err)
	}
	stim, err := NewStimulus(rec)
	if err != nil {
		b.Fatal(err)
	}
	m := NewModel(stim)
	for _, s := range pantompkins.Stages {
		b.Run(s.String(), func(b *testing.B) {
			k := 0
			for b.Loop() {
				if _, err := m.characterize(s, ama5(k)); err != nil {
					b.Fatal(err)
				}
				k = (k + 1) % (pantompkins.MaxLSBs[s] + 1)
			}
		})
	}
}
