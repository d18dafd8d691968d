package energy

import (
	"sync"
	"testing"

	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/netlist"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/synth"
)

// freshModel builds a model over record 0 with test-sized vectors,
// emptying the global characterization cache first.
func freshModel(t *testing.T) *Model {
	t.Helper()
	DropCaches()
	t.Cleanup(DropCaches)
	rec, err := ecg.NSRDBRecord(0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := NewStimulus(rec)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(stim)
	m.Vectors = 200
	return m
}

// StageActivity returns the switching-activity measurement and optimised
// netlist behind one stage configuration's report (both shared cache
// state: the netlist and activity must not be mutated).
func (m *Model) StageActivity(s pantompkins.Stage, cfg dsp.ArithConfig) (*netlist.Netlist, netlist.Activity, error) {
	e, err := m.stageChar(s, cfg)
	if err != nil {
		return nil, netlist.Activity{}, err
	}
	return e.net, e.act, nil
}

// TestCharacterizationSharedAcrossModels checks the tentpole property: a
// second model over the same record and window re-characterizes nothing,
// and its reports are identical to the first model's.
func TestCharacterizationSharedAcrossModels(t *testing.T) {
	m1 := freshModel(t)
	cfgs := []dsp.ArithConfig{dsp.Accurate(), ama5(8), ama5(16)}
	var want []float64
	for _, s := range pantompkins.Stages {
		for _, cfg := range cfgs {
			e, err := m1.StageEnergy(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, e)
		}
	}
	st := CacheStats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("first model built nothing: %+v", st)
	}
	misses := st.Misses

	// Second model, same record content and window: all hits.
	rec, err := ecg.NSRDBRecord(0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := NewStimulus(rec)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewModel(stim)
	m2.Vectors = 200
	i := 0
	for _, s := range pantompkins.Stages {
		for _, cfg := range cfgs {
			e, err := m2.StageEnergy(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if e != want[i] {
				t.Fatalf("stage %v %v: warm energy %v != cold %v", s, cfg, e, want[i])
			}
			i++
		}
	}
	st = CacheStats()
	if st.Misses != misses {
		t.Fatalf("second model re-characterized: misses %d -> %d", misses, st.Misses)
	}
	if st.Hits == 0 {
		t.Fatal("second model recorded no cache hits")
	}
}

// TestCharacterizationKeyedByStimulusAndWindow checks that a different
// record or a different analysis window does NOT share entries.
func TestCharacterizationKeyedByStimulusAndWindow(t *testing.T) {
	m1 := freshModel(t)
	if _, err := m1.StageEnergy(pantompkins.SQR, ama5(8)); err != nil {
		t.Fatal(err)
	}
	misses := CacheStats().Misses

	rec, err := ecg.NSRDBRecord(1, 3000) // different record
	if err != nil {
		t.Fatal(err)
	}
	stim, err := NewStimulus(rec)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewModel(stim)
	m2.Vectors = 200
	if _, err := m2.StageEnergy(pantompkins.SQR, ama5(8)); err != nil {
		t.Fatal(err)
	}
	if st := CacheStats(); st.Misses != misses+1 {
		t.Fatalf("different record shared a characterization (misses %d -> %d)", misses, st.Misses)
	}

	m1.Vectors = 150 // different window on the same stimulus
	if _, err := m1.StageEnergy(pantompkins.SQR, ama5(8)); err != nil {
		t.Fatal(err)
	}
	if st := CacheStats(); st.Misses != misses+2 {
		t.Fatalf("different window shared a characterization")
	}
}

// TestCanonicalAccurateSharesEntry checks that every accurate spelling of
// a stage configuration maps onto one cache entry (the kinds are dead
// parameters at k=0), per dsp.ArithConfig.Canonical.
func TestCanonicalAccurateSharesEntry(t *testing.T) {
	m := freshModel(t)
	if _, err := m.StageEnergy(pantompkins.DER, dsp.Accurate()); err != nil {
		t.Fatal(err)
	}
	misses := CacheStats().Misses
	spelled := ama5(0) // k=0 with non-zero kind fields
	if _, err := m.StageEnergy(pantompkins.DER, spelled); err != nil {
		t.Fatal(err)
	}
	if st := CacheStats(); st.Misses != misses {
		t.Fatal("accurate spelling with dead kind parameters built a second entry")
	}
}

// TestConcurrentColdBuilds hammers the cold cache from many goroutines
// over a handful of distinct configurations (run under -race in CI):
// every caller must observe the same shared entry per key, first insert
// winning.
func TestConcurrentColdBuilds(t *testing.T) {
	m := freshModel(t)
	cfgs := []dsp.ArithConfig{dsp.Accurate(), ama5(4), ama5(8), ama5(12), ama5(16)}
	stages := []pantompkins.Stage{pantompkins.SQR, pantompkins.MWI}
	type res struct {
		net *netlist.Netlist
		e   float64
	}
	const workers = 8
	results := make([][]res, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range stages {
				for _, cfg := range cfgs {
					n, _, err := m.StageActivity(s, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					e, err := m.StageEnergy(s, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					results[w] = append(results[w], res{net: n, e: e})
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if results[w][i].net != results[0][i].net {
				t.Fatalf("worker %d result %d: distinct netlist pointers — first-insert-wins violated", w, i)
			}
			if results[w][i].e != results[0][i].e {
				t.Fatalf("worker %d result %d: energy %v != %v", w, i, results[w][i].e, results[0][i].e)
			}
		}
	}
	st := CacheStats()
	want := len(cfgs) * len(stages)
	if st.Entries != want {
		t.Fatalf("entries = %d, want %d", st.Entries, want)
	}
	if st.Cells == 0 || st.ActivityBytes == 0 {
		t.Fatalf("empty accounting: %+v", st)
	}
}

// TestOptimizedReportServedFromCache checks the ablation-path fix: after
// the activity path characterizes a stage, StageOptimizedReport must be a
// pure cache hit (no re-synthesis), and its report must equal an
// independent activity-blind analysis of the same cached netlist.
func TestOptimizedReportServedFromCache(t *testing.T) {
	m := freshModel(t)
	cfgs := []dsp.ArithConfig{dsp.Accurate(), ama5(8)}
	for _, s := range pantompkins.Stages {
		for _, cfg := range cfgs {
			if _, err := m.StageReport(s, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := CacheStats()
	misses, hits := st.Misses, st.Hits
	for _, s := range pantompkins.Stages {
		for _, cfg := range cfgs {
			opt, err := m.StageOptimizedReport(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			net, _, err := m.StageActivity(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := synth.Analyze(net)
			if opt.Area != want.Area || opt.Power != want.Power ||
				opt.Delay != want.Delay || opt.Energy != want.Energy {
				t.Fatalf("stage %v %v: optimised report %+v != Analyze(net) %+v", s, cfg, opt, want)
			}
			if opt.Energy <= 0 {
				t.Fatalf("stage %v %v: non-positive optimised energy %v", s, cfg, opt.Energy)
			}
		}
	}
	if st = CacheStats(); st.Misses != misses {
		t.Fatalf("StageOptimizedReport re-characterized: misses %d -> %d", misses, st.Misses)
	} else if st.Hits == hits {
		t.Fatal("StageOptimizedReport recorded no cache hits")
	}
}

// TestStimulusFingerprintCollisionDoesNotAlias crafts a full collision of
// the primary FNV fingerprint — two different stimuli presenting identical
// primary hashes — and requires the cache to keep them apart via the
// second independent fingerprint instead of silently serving one record's
// characterization for the other.
func TestStimulusFingerprintCollisionDoesNotAlias(t *testing.T) {
	DropCaches()
	t.Cleanup(DropCaches)
	stims := make([]*Stimulus, 2)
	for i := range stims {
		rec, err := ecg.NSRDBRecord(i, 3000)
		if err != nil {
			t.Fatal(err)
		}
		stims[i], err = NewStimulus(rec)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the collision: overwrite record 1's primary fingerprints
	// with record 0's. The signals (and second fingerprints) still differ.
	stims[1].hash = stims[0].hash
	if stims[1].hash2 == stims[0].hash2 {
		t.Fatal("second fingerprints collided too — test premise broken")
	}
	var nets [2]*netlist.Netlist
	for i, stim := range stims {
		m := NewModel(stim)
		m.Vectors = 200
		net, act, err := m.StageActivity(pantompkins.SQR, ama5(8))
		if err != nil {
			t.Fatal(err)
		}
		if len(act.PerCell) == 0 {
			t.Fatalf("model %d: empty activity", i)
		}
		nets[i] = net
	}
	st := CacheStats()
	if st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("colliding primary fingerprints aliased a characterization: %+v", st)
	}
	if nets[0] == nets[1] {
		t.Fatal("both stimuli were served the same cached entry")
	}
}

// TestStageEnergyLaneVsScalarOracle characterizes every stage at several
// approximation depths with the lane-packed activity engine and requires
// per-cell activity and energy bit-identical to scalarActivity's fold
// over the same optimised stage netlist and stimulus (m.stageStreams) —
// the acceptance bar for the word-parallel engine, over the real bundled
// stage netlists and real pipeline stimulus.
func TestStageEnergyLaneVsScalarOracle(t *testing.T) {
	m := freshModel(t)
	for _, s := range pantompkins.Stages {
		for _, k := range []int{0, 2, 8, pantompkins.MaxLSBs[s]} {
			cfg := ama5(k)
			n, act, err := m.StageActivity(s, cfg)
			if err != nil {
				t.Fatalf("stage %v k=%d: %v", s, k, err)
			}
			e, err := m.StageEnergy(s, cfg)
			if err != nil {
				t.Fatalf("stage %v k=%d: %v", s, k, err)
			}
			ports, err := m.stageStreams(s, n)
			if err != nil {
				t.Fatalf("stage %v k=%d: %v", s, k, err)
			}
			scalar := scalarActivity(t, n, ports)
			if act.Vectors != scalar.Vectors || len(act.PerCell) != len(scalar.PerCell) {
				t.Fatalf("stage %v k=%d: activity shape differs from the scalar fold", s, k)
			}
			for i := range act.PerCell {
				if act.PerCell[i] != scalar.PerCell[i] {
					t.Fatalf("stage %v k=%d cell %d: lane activity %v != scalar %v",
						s, k, i, act.PerCell[i], scalar.PerCell[i])
				}
			}
			if want := synth.ActivityWeight(synth.Analyze(n), n, scalar).Energy; e != want {
				t.Fatalf("stage %v k=%d: lane energy %v != scalar %v", s, k, e, want)
			}
		}
	}
}

// scalarActivity is the activity oracle: the combinational netlist
// simulated one stimulus vector at a time, one uint8 per net, each cell
// evaluated through its elementary truth table and adding n/len(Out) per
// consecutive vector pair whose n output pins differ.
func scalarActivity(t *testing.T, n *netlist.Netlist, ports []netlist.PortStimulus) netlist.Activity {
	t.Helper()
	streams := make([][]uint64, len(n.Inputs))
	for _, ps := range ports {
		for pi, p := range n.Inputs {
			if p.Name == ps.Name {
				streams[pi] = ps.Values
			}
		}
	}
	vectors := len(ports[0].Values)
	vals := make([]uint8, n.NumNets)
	toggles := make([]float64, len(n.Cells))
	prev := make([][4]uint8, len(n.Cells))
	for v := 0; v < vectors; v++ {
		clear(vals)
		vals[netlist.Const1] = 1
		for pi, p := range n.Inputs {
			for i, b := range p.Bits {
				vals[b] = uint8(streams[pi][v]>>i) & 1
			}
		}
		for ci := range n.Cells {
			c := &n.Cells[ci]
			in := func(j int) uint8 { return vals[c.In[j]] }
			var out [4]uint8
			switch c.Kind {
			case netlist.CellFA:
				out[0], out[1] = c.Add.Eval(in(0), in(1), in(2))
			case netlist.CellMult2:
				p := c.Mul.Eval(in(0)|in(1)<<1, in(2)|in(3)<<1)
				out = [4]uint8{p & 1, p >> 1 & 1, p >> 2 & 1, p >> 3 & 1}
			case netlist.CellInv:
				out[0] = 1 - in(0)
			default:
				t.Fatalf("%s cell %d: %v in a combinational netlist", n.Name, ci, c.Kind)
			}
			toggled := 0
			for j, net := range c.Out {
				vals[net] = out[j]
				if out[j] != prev[ci][j] {
					toggled++
				}
			}
			if v > 0 {
				toggles[ci] += float64(toggled) / float64(len(c.Out))
			}
			prev[ci] = out
		}
	}
	for i := range toggles {
		toggles[i] /= float64(vectors - 1)
	}
	return netlist.Activity{PerCell: toggles, Vectors: vectors}
}
