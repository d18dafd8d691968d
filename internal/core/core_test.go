package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dse"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/energy"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/sched"
)

func testEvaluator(t *testing.T, n int) *Evaluator {
	t.Helper()
	rec, err := ecg.NSRDBRecord(0, n)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator([]*ecg.Record{rec})
	if err != nil {
		t.Fatal(err)
	}
	return eval
}

func TestEvaluatorAccurateConfigPerfect(t *testing.T) {
	eval := testEvaluator(t, 8000)
	q, err := eval.Evaluate(pantompkins.AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if q.PeakAccuracy != 1 {
		t.Errorf("accurate accuracy %v, want 1", q.PeakAccuracy)
	}
	if q.PSNR < 100 {
		t.Errorf("accurate PSNR %v, want clamped identity (120)", q.PSNR)
	}
	if math.Abs(q.SSIM-1) > 1e-9 {
		t.Errorf("accurate SSIM %v, want 1", q.SSIM)
	}
	if eval.Evaluations() != 1 {
		t.Errorf("evaluation counter %d, want 1", eval.Evaluations())
	}
}

func TestEvaluatorQualityDegradesMonotonically(t *testing.T) {
	eval := testEvaluator(t, 8000)
	psnr := func(k int) float64 {
		var cfg pantompkins.Config
		cfg.Stage[pantompkins.HPF] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
		q, err := eval.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return q.PSNR
	}
	p4, p12 := psnr(4), psnr(12)
	if !(p12 < p4) {
		t.Errorf("PSNR did not degrade: k=4 %.2f, k=12 %.2f", p4, p12)
	}
}

func TestEvaluatorRejectsEmptyRecords(t *testing.T) {
	if _, err := NewEvaluator(nil); err == nil {
		t.Error("empty record set accepted")
	}
}

func TestDefaultLSBLists(t *testing.T) {
	lists := DefaultLSBLists()
	for _, s := range pantompkins.Stages {
		l := lists[s]
		if len(l) == 0 {
			t.Fatalf("no list for %v", s)
		}
		if l[0] != pantompkins.MaxLSBs[s] {
			t.Errorf("%v list starts at %d, want %d", s, l[0], pantompkins.MaxLSBs[s])
		}
		if l[len(l)-1] != 0 {
			t.Errorf("%v list must end at 0", s)
		}
		for i := 1; i < len(l); i++ {
			if l[i] != l[i-1]-2 {
				t.Errorf("%v list not multiples of two: %v", s, l)
			}
		}
	}
}

func TestMethodologyEndToEnd(t *testing.T) {
	// The full two-gate flow on a small record: it must terminate, satisfy
	// both constraints, approximate something, and save energy.
	if testing.Short() {
		t.Skip("methodology run is slow")
	}
	rec, err := ecg.NSRDBRecord(0, 6000)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator([]*ecg.Record{rec})
	if err != nil {
		t.Fatal(err)
	}
	stim, err := energy.NewStimulus(rec)
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(stim)
	em.Vectors = 300
	m := NewMethodology(eval, em)

	d, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Quality.PeakAccuracy < m.FinalConstraint {
		t.Errorf("final accuracy %.3f below constraint %.3f", d.Quality.PeakAccuracy, m.FinalConstraint)
	}
	total := 0
	for _, s := range pantompkins.Stages {
		total += d.Config.Stage[s].LSBs
	}
	if total == 0 {
		t.Error("methodology produced the accurate design (no approximation)")
	}
	if d.EnergyReduction <= 1 {
		t.Errorf("energy reduction %.2f, want > 1", d.EnergyReduction)
	}
	if d.PreEvaluations == 0 || d.ProcEvaluations == 0 {
		t.Error("missing exploration counts")
	}
	// The pre-processing gate additionally enforces the PSNR constraint.
	preQ, err := eval.Evaluate(d.PreConfig)
	if err != nil {
		t.Fatal(err)
	}
	if preQ.PSNR < m.SignalConstraint {
		t.Errorf("pre-processing PSNR %.2f below gate %.2f", preQ.PSNR, m.SignalConstraint)
	}
}

// TestEvaluatorShardDeterminism is the record-reduction determinism gate:
// Quality records, Evaluations counts and full DSE traces must be
// bit-identical for every Workers in {1, 2, GOMAXPROCS}, pinned against
// the sequential run.
func TestEvaluatorShardDeterminism(t *testing.T) {
	var records []*ecg.Record
	for i := 0; i < 3; i++ {
		rec, err := ecg.NSRDBRecord(i, 2500)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	stim, err := energy.NewStimulus(records[0])
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(stim)

	probe := func(k int) pantompkins.Config {
		var cfg pantompkins.Config
		cfg.Stage[pantompkins.HPF] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
		return cfg
	}
	type outcome struct {
		qualities []Quality
		evals     int
		res       dse.Result
	}
	run := func(workers int) outcome {
		eval, err := NewEvaluatorOpts(records, EvalOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var o outcome
		for _, k := range []int{0, 4, 10, 16} {
			q, err := eval.Evaluate(probe(k))
			if err != nil {
				t.Fatal(err)
			}
			o.qualities = append(o.qualities, q)
		}
		opt := dse.Options{
			Base:       pantompkins.AccurateConfig(),
			Stages:     []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF},
			LSBs:       DefaultLSBLists(),
			Mults:      []approx.MultKind{approx.AppMultV1},
			Adds:       []approx.AdderKind{approx.ApproxAdd5},
			Constraint: 15,
			Workers:    workers,
		}
		evalPSNR := func(cfg pantompkins.Config) (float64, error) {
			q, err := eval.Evaluate(cfg)
			if err != nil {
				return 0, err
			}
			return q.PSNR, nil
		}
		o.res, err = dse.Generate(opt, evalPSNR, em.StageEnergy)
		if err != nil {
			t.Fatal(err)
		}
		o.evals = eval.Evaluations()
		return o
	}

	ref := run(1)
	// The distinct-simulation count may grow with Workers > 1 (the
	// explorer speculates past stopping points), so only the sequential
	// runs must match it.
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		label := fmt.Sprintf("workers=%d", workers)
		for i := range ref.qualities {
			if got.qualities[i] != ref.qualities[i] {
				t.Errorf("%s: quality[%d] = %+v, sequential %+v", label, i, got.qualities[i], ref.qualities[i])
			}
		}
		if workers == 1 && got.evals != ref.evals {
			t.Errorf("%s: %d evaluations, sequential %d", label, got.evals, ref.evals)
		}
		if got.res.Config != ref.res.Config || got.res.Quality != ref.res.Quality || got.res.Evaluations != ref.res.Evaluations {
			t.Errorf("%s: DSE result %+v, sequential %+v", label, got.res, ref.res)
		}
		if len(got.res.Explored) != len(ref.res.Explored) {
			t.Fatalf("%s: trace length %d, sequential %d", label, len(got.res.Explored), len(ref.res.Explored))
		}
		for i := range ref.res.Explored {
			if got.res.Explored[i] != ref.res.Explored[i] {
				t.Errorf("%s: trace[%d] = %+v, sequential %+v", label, i, got.res.Explored[i], ref.res.Explored[i])
			}
		}
	}
}

// TestEvaluatorWarmShardAllocationFree checks the per-record evaluation
// performs zero allocations once its scratch (pipeline, stage buffers,
// detector) is warm.
func TestEvaluatorWarmShardAllocationFree(t *testing.T) {
	eval := testEvaluator(t, 3000)
	var cfg pantompkins.Config
	cfg.Stage[pantompkins.LPF] = dsp.ArithConfig{LSBs: 8, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	// Warm: builds cfg's pipeline into the scratch pool and the result
	// cache (the alloc probe below bypasses the cache).
	if _, err := eval.Evaluate(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := eval.evalRecord(cfg, 0); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := eval.evalRecord(cfg, 0); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm record evaluation allocates %.2f times per record, want 0", avg)
	}

	// Prefix hit: hit shares cfg's LPF/HPF and differs from DER on, so
	// after cfg the record resumes at DER. Rewinding the record's stored
	// configuration to cfg's before each run repeats exactly that hit on
	// hit's warm pipeline.
	hit := cfg
	hit.Stage[pantompkins.DER] = dsp.ArithConfig{LSBs: 2, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	if _, err := eval.evalRecord(hit, 0); err != nil {
		t.Fatal(err)
	}
	if n := len(eval.scratch.free); n != 1 {
		t.Fatalf("%d pooled scratches after sequential evaluation, want 1", n)
	}
	sim := &eval.scratch.free[0].sims[0]
	avg = testing.AllocsPerRun(50, func() {
		sim.cfg = sched.Canonical(cfg)
		if _, err := eval.evalRecord(hit, 0); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("prefix-hit record evaluation allocates %.2f times per record, want 0", avg)
	}
}

// drawConfigs draws n configurations from the paper's design space —
// per-stage LSBs from DefaultLSBLists crossed with every Table 1 adder
// and multiplier kind, so k=0 rows with differing (dead) kinds occur. Each
// draw after the first keeps a random leading run of the previous one's
// stages and redraws the rest, the way gate 2 and the Table 2 grid move
// through the space, so most consecutive pairs share a stage prefix.
func drawConfigs(rng *rand.Rand, n int) []pantompkins.Config {
	lsbs := DefaultLSBLists()
	var cfgs []pantompkins.Config
	var cur pantompkins.Config
	for len(cfgs) < n {
		keep := 0
		if len(cfgs) > 0 {
			keep = rng.Intn(pantompkins.NumStages)
		}
		for _, s := range pantompkins.Stages[keep:] {
			l := lsbs[s]
			cur.Stage[s] = dsp.ArithConfig{
				LSBs: l[rng.Intn(len(l))],
				Add:  approx.AdderKinds[rng.Intn(approx.NumAdderKinds)],
				Mul:  approx.MultKinds[rng.Intn(approx.NumMultKinds)],
			}
		}
		cfgs = append(cfgs, cur)
	}
	return cfgs
}

// TestEvaluatorPrefixReuseDifferential is the prefix-reuse gate: a seeded
// configuration sequence, evaluated in drawn and in shuffled order by
// {1, 2, 4} concurrent explorer workers on one evaluator, must give
// exactly the Quality a fresh evaluator computes for each configuration
// alone.
func TestEvaluatorPrefixReuseDifferential(t *testing.T) {
	var records []*ecg.Record
	for i := 0; i < 2; i++ {
		rec, err := ecg.NSRDBRecord(i, 1500)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	rng := rand.New(rand.NewSource(12))
	cfgs := drawConfigs(rng, 24)
	want := make([]Quality, len(cfgs))
	for i, cfg := range cfgs {
		fresh, err := NewEvaluatorOpts(records, EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = fresh.Evaluate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	drawn := make([]int, len(cfgs))
	for i := range drawn {
		drawn[i] = i
	}
	for _, workers := range []int{1, 2, 4} {
		for _, order := range [][]int{drawn, rng.Perm(len(cfgs))} {
			eval, err := NewEvaluatorOpts(records, EvalOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]Quality, len(cfgs))
			errs := make([]error, len(cfgs))
			var wg sync.WaitGroup
			next := make(chan int)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range next {
						got[i], errs[i] = eval.Evaluate(cfgs[i])
					}
				}()
			}
			for _, i := range order {
				next <- i
			}
			close(next)
			wg.Wait()
			for i := range cfgs {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if got[i] != want[i] {
					t.Fatalf("workers=%d order=%v: %v = %+v, fresh evaluator %+v",
						workers, order, cfgs[i], got[i], want[i])
				}
			}
		}
	}
}

// TestDroppedEvaluatorsHoldNoGoroutines pins the evaluation engine's
// goroutine bound: evaluators that fan a multi-record evaluation out over
// two workers and are then dropped must leave no goroutine behind.
func TestDroppedEvaluatorsHoldNoGoroutines(t *testing.T) {
	var records []*ecg.Record
	for i := 0; i < 2; i++ {
		rec, err := ecg.NSRDBRecord(i, 1500)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	var cfg pantompkins.Config
	cfg.Stage[pantompkins.LPF] = dsp.ArithConfig{LSBs: 8, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	const evaluators = 20
	base := runtime.NumGoroutine()
	for i := 0; i < evaluators; i++ {
		eval, err := NewEvaluatorOpts(records, EvalOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eval.Evaluate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// A goroutine that has signalled completion may still be exiting, so
	// poll briefly instead of reading the count once.
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after dropping %d evaluators, %d before", n, evaluators, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEvaluatorToleranceLatch pins the Tolerance contract: mutation before
// the first Evaluate applies, mutation after it fails loudly instead of
// silently mixing matching windows with cached results.
func TestEvaluatorToleranceLatch(t *testing.T) {
	eval := testEvaluator(t, 3000)
	eval.Tolerance = 10 // before the first Evaluate: honoured
	if _, err := eval.Evaluate(pantompkins.AccurateConfig()); err != nil {
		t.Fatal(err)
	}
	eval.Tolerance = 25
	if _, err := eval.Evaluate(pantompkins.AccurateConfig()); err == nil {
		t.Fatal("Tolerance mutation after the first Evaluate was silently accepted")
	}
	eval.Tolerance = 10 // restoring the latched value heals the evaluator
	if _, err := eval.Evaluate(pantompkins.AccurateConfig()); err != nil {
		t.Fatalf("restored tolerance rejected: %v", err)
	}
}
