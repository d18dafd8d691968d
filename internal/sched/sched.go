package sched

import (
	"runtime"
	"sync"

	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// Func computes one value (a quality metric, a full quality record, ...)
// for one pipeline configuration. It must be deterministic and safe for
// concurrent use: the engine calls it from multiple workers and caches the
// result per canonical configuration.
type Func[V any] func(cfg pantompkins.Config) (V, error)

// ItemFunc computes the partial result of one work item — one evaluation
// record — for one configuration (the second scheduling level of a
// sharded engine). Like Func it must be deterministic and safe for
// concurrent use.
type ItemFunc[P any] func(cfg pantompkins.Config, item int) (P, error)

// ReduceFunc folds the per-item partials of one configuration into the
// cached value. The engine always presents parts in item order, whatever
// the worker count, so a deterministic reduction gives bit-identical
// results for every parallelism setting. parts is engine scratch,
// recycled across evaluations (and design-space-exploration phases):
// reduce must not retain the slice or its elements past the call.
type ReduceFunc[V, P any] func(cfg pantompkins.Config, parts []P) (V, error)

// Stats is a snapshot of an evaluator's cache accounting.
type Stats struct {
	// Hits counts requests answered from the cache (including requests
	// that waited for an in-flight computation of the same design).
	Hits int64
	// Misses counts requests that triggered a computation; it equals the
	// number of distinct canonical designs evaluated.
	Misses int64
}

// Canonical returns the memoization key of a configuration: per stage,
// zero approximated LSBs means the elementary adder/multiplier kinds are
// dead parameters (both arith.Adder and arith.Multiplier are exact when
// ApproxLSBs == 0), so they are cleared. Configurations that generate the
// same hardware therefore share one cache entry.
func Canonical(cfg pantompkins.Config) pantompkins.Config {
	for i := range cfg.Stage {
		if cfg.Stage[i].LSBs == 0 {
			cfg.Stage[i] = dsp.ArithConfig{}
		}
	}
	return cfg
}

// itemScratch is one reusable per-design evaluation workspace of a
// sharded engine: the item-ordered partials and errors, the design under
// evaluation and the pre-built scatter callback (built once so a warm
// evaluation allocates neither slices nor a closure). Each concurrent
// design evaluation checks one out of the engine's free list and returns
// it after reduce, so steady-state evaluation allocates no scratch
// regardless of how many designs or phases run.
type itemScratch[P any] struct {
	parts []P
	errs  []error
	cfg   pantompkins.Config
	run   func(i int)
}

// entry is one memoized evaluation; done is closed once q/err are final.
type entry[V any] struct {
	done chan struct{}
	q    V
	err  error
}

// Evaluator fans configuration evaluations out across at most workers
// goroutines and memoizes every result by canonical configuration, so a
// design revisited by any caller — Algorithm 1's phases, the exhaustive
// and heuristic baselines, repeated experiments over one record set — is
// never evaluated twice.
//
// All methods are safe for concurrent use. Every goroutine the engine
// starts exits before the call that started it returns, so an engine
// needs no shutdown and a dropped one holds no goroutines.
type Evaluator[V any] struct {
	fn Func[V]
	// slots is a counting semaphore of workers tokens: each goroutine the
	// engine starts holds one until it exits.
	slots chan struct{}

	mu    sync.Mutex
	cache map[pantompkins.Config]*entry[V]
	stats Stats
}

// New builds an engine over fn with the given worker count; workers <= 0
// selects runtime.GOMAXPROCS(0).
func New[V any](workers int, fn Func[V]) *Evaluator[V] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Evaluator[V]{
		fn:    fn,
		slots: make(chan struct{}, workers),
		cache: make(map[pantompkins.Config]*entry[V]),
	}
}

// NewSharded builds a two-level engine: configurations are cached and
// fanned out exactly like New's, but a cache-missing design additionally
// splits into one sub-job per work item (evaluation record), each
// computing item(cfg, i); once every item of the design finishes, reduce
// folds the partials — always in item order — into the cached value.
// Item sub-jobs draw on the same worker slots as whole-design jobs: an
// item runs on a new goroutine when a slot is free and inline in the
// submitting goroutine otherwise, so design-level and record-level
// parallelism share the slots without deadlock and a single design
// evaluation can saturate every worker.
//
// Determinism: parts[i] is written by exactly one sub-job and reduce sees
// the full item-ordered slice, so the value cached for a design is
// bit-identical for every worker count provided item and reduce are
// deterministic. Every item runs even when another fails, and the error
// of the lowest-index failing item wins.
//
// The per-design partials and errors are evaluation scratch drawn from a
// free list, not allocated per design: a long-running engine — one
// driving all three phases of a design-space exploration plus both
// methodology gates — reuses one scratch set per concurrent evaluation
// for its whole lifetime. This is why ReduceFunc must not retain parts.
//
// The free list is a mutex-guarded slice owned by the engine, one entry
// per evaluation that has ever run concurrently. It is not a sync.Pool:
// the runtime keeps pooled entries alive for two GC cycles, and each
// entry's callback reaches item, so a dropped engine would pin everything
// item references (core.Evaluator's pipelines and stage outputs) well
// past its last use. The free list dies with the engine.
func NewSharded[V, P any](workers, items int, item ItemFunc[P], reduce ReduceFunc[V, P]) *Evaluator[V] {
	e := New[V](workers, nil)
	var free struct {
		sync.Mutex
		list []*itemScratch[P]
	}
	get := func() *itemScratch[P] {
		free.Lock()
		defer free.Unlock()
		if n := len(free.list); n > 0 {
			sc := free.list[n-1]
			free.list = free.list[:n-1]
			return sc
		}
		sc := &itemScratch[P]{parts: make([]P, items), errs: make([]error, items)}
		sc.run = func(i int) { sc.parts[i], sc.errs[i] = item(sc.cfg, i) }
		return sc
	}
	put := func(sc *itemScratch[P]) {
		free.Lock()
		defer free.Unlock()
		free.list = append(free.list, sc)
	}
	e.fn = func(cfg pantompkins.Config) (V, error) {
		sc := get()
		defer put(sc)
		sc.cfg = cfg
		e.scatter(items, sc.run)
		for _, err := range sc.errs {
			if err != nil {
				var zero V
				return zero, err
			}
		}
		return reduce(cfg, sc.parts)
	}
	return e
}

// scatter runs n indexed tasks and returns once all have finished. Each
// task runs on a new goroutine when a slot is free and inline in the
// submitting goroutine otherwise, so submission never blocks. Inline
// execution guarantees progress: a design evaluation holding a slot
// that splits into per-record sub-jobs cannot deadlock, and idle slots
// still absorb the fan-out.
func (e *Evaluator[V]) scatter(n int, task func(int)) {
	if n <= 1 || cap(e.slots) <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case e.slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-e.slots }()
				task(i)
			}()
		default:
			task(i)
		}
	}
	wg.Wait()
}

// Workers returns the worker count: the most goroutines the engine has
// started and not yet finished at any time.
func (e *Evaluator[V]) Workers() int { return cap(e.slots) }

// Stats returns a snapshot of the cache accounting.
func (e *Evaluator[V]) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// lookup claims or finds the cache entry for cfg; owned reports whether
// the caller must compute it (and close its done channel).
func (e *Evaluator[V]) lookup(cfg pantompkins.Config) (ent *entry[V], owned bool) {
	key := Canonical(cfg)
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.cache[key]; ok {
		e.stats.Hits++
		return ent, false
	}
	ent = &entry[V]{done: make(chan struct{})}
	e.cache[key] = ent
	e.stats.Misses++
	return ent, true
}

// Evaluate returns the (possibly cached) value of one configuration. A
// miss is computed in the calling goroutine; concurrent requests for the
// same design wait for the single in-flight computation.
func (e *Evaluator[V]) Evaluate(cfg pantompkins.Config) (V, error) {
	ent, owned := e.lookup(cfg)
	if owned {
		ent.q, ent.err = e.fn(cfg)
		close(ent.done)
	} else {
		<-ent.done
	}
	return ent.q, ent.err
}

// EvaluateBatch evaluates every configuration concurrently, each cache
// miss on its own goroutine once a slot is free, and returns the results
// in input order. Duplicate and already-cached designs are computed at
// most once. If any evaluation fails, the batch still waits for every
// goroutine it started and the error of the lowest-index failing
// configuration is returned, so the outcome is deterministic regardless
// of worker count.
func (e *Evaluator[V]) EvaluateBatch(cfgs []pantompkins.Config) ([]V, error) {
	entries := make([]*entry[V], len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		ent, owned := e.lookup(cfg)
		entries[i] = ent
		if !owned {
			continue
		}
		e.slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-e.slots }()
			ent.q, ent.err = e.fn(cfg)
			close(ent.done)
		}()
	}
	wg.Wait()
	out := make([]V, len(cfgs))
	for i, ent := range entries {
		// Entries owned by a concurrent batch may still be in flight.
		<-ent.done
		if ent.err != nil {
			return nil, ent.err
		}
		out[i] = ent.q
	}
	return out, nil
}
