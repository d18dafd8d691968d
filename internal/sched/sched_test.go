package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// cfgK builds a configuration with the given per-stage LSB counts and
// fixed module kinds.
func cfgK(ks [pantompkins.NumStages]int) pantompkins.Config {
	var cfg pantompkins.Config
	for i, s := range pantompkins.Stages {
		if ks[i] > 0 {
			cfg.Stage[s] = dsp.ArithConfig{LSBs: ks[i], Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
		}
	}
	return cfg
}

// quality is a cheap deterministic stand-in for pipeline simulation.
func quality(cfg pantompkins.Config) (float64, error) {
	q := 100.0
	for _, s := range pantompkins.Stages {
		q -= float64(cfg.Stage[s].LSBs)
	}
	return q, nil
}

func TestEvaluateMemoizes(t *testing.T) {
	var calls atomic.Int64
	e := New(4, func(cfg pantompkins.Config) (float64, error) {
		calls.Add(1)
		return quality(cfg)
	})

	cfg := cfgK([pantompkins.NumStages]int{2, 4, 0, 0, 8})
	want := 100.0 - 14
	for i := 0; i < 5; i++ {
		q, err := e.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if q != want {
			t.Fatalf("quality %v, want %v", q, want)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("function called %d times, want 1", n)
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Errorf("stats %+v, want 1 miss / 4 hits", st)
	}
}

func TestCanonicalSharesAccurateSpellings(t *testing.T) {
	var calls atomic.Int64
	e := New(2, func(cfg pantompkins.Config) (float64, error) {
		calls.Add(1)
		return quality(cfg)
	})

	// k=0 with different module kinds is the same hardware: one entry.
	a := pantompkins.AccurateConfig()
	b := pantompkins.AccurateConfig()
	b.Stage[pantompkins.LPF] = dsp.ArithConfig{LSBs: 0, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	if Canonical(a) != Canonical(b) {
		t.Fatal("canonical forms differ for equivalent accurate configs")
	}
	if _, err := e.Evaluate(a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Evaluate(b); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("equivalent accurate spellings evaluated %d times, want 1", n)
	}
	// A genuinely approximated stage must NOT collapse onto the accurate
	// entry.
	c := cfgK([pantompkins.NumStages]int{2, 0, 0, 0, 0})
	if Canonical(c) == Canonical(a) {
		t.Fatal("approximate config canonicalized onto the accurate one")
	}
}

func TestBatchOrderAndDedup(t *testing.T) {
	var calls atomic.Int64
	e := New(4, func(cfg pantompkins.Config) (float64, error) {
		calls.Add(1)
		return quality(cfg)
	})

	var cfgs []pantompkins.Config
	var want []float64
	for k := 0; k <= 16; k += 2 {
		c := cfgK([pantompkins.NumStages]int{k, 0, 0, 0, 0})
		cfgs = append(cfgs, c, c) // duplicate every design in the batch
		want = append(want, 100-float64(k), 100-float64(k))
	}
	got, err := e.EvaluateBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if n := calls.Load(); n != 9 {
		t.Errorf("function called %d times for 9 distinct designs, want 9", n)
	}
}

// TestDeterminismAcrossWorkerCounts runs the same mixed workload through a
// 1-worker and an 8-worker engine (plus concurrent batch callers, which
// -race scrutinises) and demands identical results.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	workload := func() []pantompkins.Config {
		var cfgs []pantompkins.Config
		for k := 16; k >= 0; k -= 2 {
			for j := 0; j <= 4; j += 2 {
				cfgs = append(cfgs, cfgK([pantompkins.NumStages]int{k, j, 0, j, k}))
			}
		}
		return cfgs
	}
	run := func(workers int) []float64 {
		e := New(workers, quality)
		var wg sync.WaitGroup
		results := make([][]float64, 4)
		errs := make([]error, 4)
		for g := 0; g < 4; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[g], errs[g] = e.EvaluateBatch(workload())
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for g := 1; g < 4; g++ {
			for i := range results[0] {
				if results[g][i] != results[0][i] {
					t.Fatalf("concurrent callers disagree at %d", i)
				}
			}
		}
		return results[0]
	}
	seq := run(1)
	par := run(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("worker-count dependent result at %d: %v vs %v", i, seq[i], par[i])
		}
	}
}

// TestErrorPropagation checks that a failing evaluation aborts the batch
// with a deterministic error, leaves the engine usable, and caches the
// failure.
func TestErrorPropagation(t *testing.T) {
	bad1 := cfgK([pantompkins.NumStages]int{2, 0, 0, 0, 0})
	bad2 := cfgK([pantompkins.NumStages]int{4, 0, 0, 0, 0})
	var calls atomic.Int64
	e := New(4, func(cfg pantompkins.Config) (float64, error) {
		calls.Add(1)
		if Canonical(cfg) == Canonical(bad1) || Canonical(cfg) == Canonical(bad2) {
			return 0, fmt.Errorf("broken design %v", cfg)
		}
		return quality(cfg)
	})

	var cfgs []pantompkins.Config
	for k := 0; k <= 16; k += 2 {
		cfgs = append(cfgs, cfgK([pantompkins.NumStages]int{k, 0, 0, 0, 0}))
	}
	// bad1 sits at index 1, bad2 at index 2: the lowest-index error must
	// win no matter which worker fails first.
	_, err := e.EvaluateBatch(cfgs)
	if err == nil {
		t.Fatal("batch with failing design returned no error")
	}
	if want := fmt.Sprintf("broken design %v", bad1); err.Error() != want {
		t.Errorf("error %q, want the lowest-index failure %q", err, want)
	}

	// The engine must still serve fresh work after the failure (no
	// deadlock, no leaked slots)...
	ok := cfgK([pantompkins.NumStages]int{6, 0, 0, 0, 0})
	if q, err := e.Evaluate(ok); err != nil || q != 94 {
		t.Fatalf("engine unusable after error: q=%v err=%v", q, err)
	}
	// ...and the failure itself is memoized.
	before := calls.Load()
	if _, err := e.Evaluate(bad1); err == nil {
		t.Fatal("cached failure lost")
	}
	if calls.Load() != before {
		t.Error("failed design re-evaluated instead of served from cache")
	}
}

func TestErrorsDoNotDeadlockSmallPool(t *testing.T) {
	e := New(1, func(cfg pantompkins.Config) (float64, error) {
		return 0, errors.New("always broken")
	})
	var cfgs []pantompkins.Config
	for k := 0; k <= 16; k += 2 {
		cfgs = append(cfgs, cfgK([pantompkins.NumStages]int{k, 0, 0, 0, 0}))
	}
	if _, err := e.EvaluateBatch(cfgs); err == nil {
		t.Fatal("expected error")
	}
	if _, err := e.EvaluateBatch(cfgs); err == nil {
		t.Fatal("expected cached error")
	}
}

func TestSplit(t *testing.T) {
	cases := []struct {
		n, k int
		want []Range
	}{
		{0, 4, nil},
		{1, 1, []Range{{0, 1}}},
		{5, 1, []Range{{0, 5}}},
		{5, 0, []Range{{0, 5}}},
		{4, 2, []Range{{0, 2}, {2, 4}}},
		{5, 2, []Range{{0, 3}, {3, 5}}},
		{3, 8, []Range{{0, 1}, {1, 2}, {2, 3}}},
	}
	for _, c := range cases {
		got := Split(c.n, c.k)
		if len(got) != len(c.want) {
			t.Fatalf("Split(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Split(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
			}
		}
	}
}

// shardQuality is the per-record stand-in of the sharded tests: a partial
// that identifies (config, record) so the reduction can verify coverage
// and ordering.
func shardQuality(cfg pantompkins.Config, item int) (float64, error) {
	q, _ := quality(cfg)
	return q + float64(item)/1024, nil
}

// TestShardedDeterminism runs a mixed workload through every combination
// of worker count and shard split (including concurrent batch callers) and
// demands bit-identical reductions, with every item seen exactly once and
// in order.
func TestShardedDeterminism(t *testing.T) {
	const items = 7
	reduce := func(cfg pantompkins.Config, parts []float64) (float64, error) {
		if len(parts) != items {
			return 0, fmt.Errorf("reduce saw %d parts, want %d", len(parts), items)
		}
		total := 0.0
		for i, p := range parts {
			want, _ := shardQuality(cfg, i)
			if p != want {
				return 0, fmt.Errorf("parts[%d] = %v, want %v (out of order?)", i, p, want)
			}
			total += p
		}
		return total, nil
	}
	workload := func() []pantompkins.Config {
		var cfgs []pantompkins.Config
		for k := 16; k >= 0; k -= 2 {
			cfgs = append(cfgs, cfgK([pantompkins.NumStages]int{k, k / 2, 0, 0, k}))
		}
		return cfgs
	}
	var ref []float64
	for _, workers := range []int{1, 2, 8} {
		for _, shards := range []int{1, 2, 0} { // 0 = one shard per item
			e := NewSharded[float64, float64](workers, items, shards, shardQuality, reduce)
			var wg sync.WaitGroup
			results := make([][]float64, 3)
			errs := make([]error, 3)
			for g := range results {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[g], errs[g] = e.EvaluateBatch(workload())
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if ref == nil {
				ref = results[0]
			}
			for g := range results {
				for i := range ref {
					if results[g][i] != ref[i] {
						t.Fatalf("workers=%d shards=%d caller %d: result[%d] = %v, want %v",
							workers, shards, g, i, results[g][i], ref[i])
					}
				}
			}
			if st := e.Stats(); st.Misses != int64(len(ref)) {
				t.Fatalf("workers=%d shards=%d: %d misses for %d distinct designs", workers, shards, st.Misses, len(ref))
			}
		}
	}
}

// TestShardedErrorIsLowestItem checks that the lowest-index failing item's
// error wins for any shard split, like the batch contract.
func TestShardedErrorIsLowestItem(t *testing.T) {
	const items = 6
	item := func(cfg pantompkins.Config, i int) (float64, error) {
		if i >= 2 {
			return 0, fmt.Errorf("item %d broken", i)
		}
		return float64(i), nil
	}
	reduce := func(cfg pantompkins.Config, parts []float64) (float64, error) {
		t.Fatal("reduce called despite item errors")
		return 0, nil
	}
	for _, shards := range []int{1, 2, 3, 0} {
		e := NewSharded[float64, float64](4, items, shards, item, reduce)
		_, err := e.Evaluate(pantompkins.AccurateConfig())
		if err == nil || err.Error() != "item 2 broken" {
			t.Fatalf("shards=%d: error %v, want the lowest-index item failure", shards, err)
		}
	}
}

// TestScatterFromInsidePool floods a sharded engine through EvaluateBatch
// so design jobs holding every slot must scatter their shards with no slot
// free; the non-blocking dispatch must complete inline rather than
// deadlock.
func TestScatterFromInsidePool(t *testing.T) {
	const items = 5
	reduce := func(cfg pantompkins.Config, parts []float64) (float64, error) {
		total := 0.0
		for _, p := range parts {
			total += p
		}
		return total, nil
	}
	e := NewSharded[float64, float64](2, items, 0, shardQuality, reduce)
	var cfgs []pantompkins.Config
	for k := 0; k <= 16; k += 2 {
		cfgs = append(cfgs, cfgK([pantompkins.NumStages]int{k, 0, 0, 0, 0}))
	}
	if _, err := e.EvaluateBatch(cfgs); err != nil {
		t.Fatal(err)
	}
}

// TestShardedScratchReuse guards the shared evaluation scratch: after the
// free list is warm, a sharded design evaluation (the closure every
// design-space-exploration phase drives) must allocate nothing — parts
// and shard-error slices are recycled, not rebuilt per design.
func TestShardedScratchReuse(t *testing.T) {
	item := func(cfg pantompkins.Config, i int) (int, error) {
		return i + cfg.Stage[pantompkins.LPF].LSBs, nil
	}
	reduce := func(cfg pantompkins.Config, parts []int) (int, error) {
		total := 0
		for _, p := range parts {
			total += p
		}
		return total, nil
	}
	// workers=1 keeps scatter on the inline path so the measurement sees
	// only the evaluation closure itself.
	e := NewSharded[int, int](1, 8, 4, item, reduce)
	cfg := cfgK([pantompkins.NumStages]int{2, 0, 0, 0, 0})
	want, err := e.fn(cfg) // warm the free list
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		got, err := e.fn(cfg)
		if err != nil || got != want {
			t.Fatalf("got %d, %v; want %d", got, err, want)
		}
	}); avg != 0 {
		t.Fatalf("sharded evaluation allocates %.1f objects/run; scratch not reused", avg)
	}
}
