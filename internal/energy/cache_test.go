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
// approximation depths with the lane-packed activity engine and the scalar
// oracle and requires bit-identical per-cell activity and energy — the
// acceptance bar for the word-parallel rewrite, over the real bundled
// stage netlists and real pipeline stimulus.
func TestStageEnergyLaneVsScalarOracle(t *testing.T) {
	m := freshModel(t)
	for _, s := range pantompkins.Stages {
		for _, k := range []int{0, 2, 8, pantompkins.MaxLSBs[s]} {
			cfg := ama5(k)
			prev := netlist.SetLanePacking(true)
			nLane, actLane, laneErr := m.StageActivity(s, cfg)
			eLane, laneErr2 := m.StageEnergy(s, cfg)
			DropCaches() // force a scalar re-characterization
			netlist.SetLanePacking(false)
			nScalar, actScalar, scalarErr := m.StageActivity(s, cfg)
			eScalar, scalarErr2 := m.StageEnergy(s, cfg)
			netlist.SetLanePacking(prev)
			DropCaches()
			if laneErr != nil || scalarErr != nil || laneErr2 != nil || scalarErr2 != nil {
				t.Fatalf("stage %v k=%d: errs %v %v %v %v", s, k, laneErr, scalarErr, laneErr2, scalarErr2)
			}
			if len(nLane.Cells) != len(nScalar.Cells) || len(actLane.PerCell) != len(actScalar.PerCell) {
				t.Fatalf("stage %v k=%d: netlist shape differs between paths", s, k)
			}
			for i := range actLane.PerCell {
				if actLane.PerCell[i] != actScalar.PerCell[i] {
					t.Fatalf("stage %v k=%d cell %d: lane activity %v != scalar %v",
						s, k, i, actLane.PerCell[i], actScalar.PerCell[i])
				}
			}
			if eLane != eScalar {
				t.Fatalf("stage %v k=%d: lane energy %v != scalar %v", s, k, eLane, eScalar)
			}
		}
	}
}
