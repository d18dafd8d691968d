package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 for a root span
	Op     int32  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerTotals sums one span name over the traced ops: its busy time, and
// its self time (busy time minus the part its children cover).
type layerTotals struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// maxKeptSpans bounds the spans held for the trace file; totals keep
// counting past it.
const maxKeptSpans = 100000

// tracer keeps the spans of the current op in memory, folds them into
// per-name totals when the op ends, and keeps whole ops' spans for the
// trace file while they fit in maxKeptSpans. Only ops started with beginOp(op, true) record spans;
// begin returns 0 and end ignores it otherwise, so untraced ops pay one
// atomic load per call site.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu      sync.Mutex
	op      int32
	base    int32 // ID of cur[0]
	cur     []span
	kept    []span
	dropped int
	ops     int
	totals  map[string]*layerTotals
	nestErr error
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: map[string]*layerTotals{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp starts op; spans are recorded until endOp only if traced.
func (t *tracer) beginOp(op int, traced bool) {
	t.mu.Lock()
	t.op = int32(op)
	t.base += int32(len(t.cur))
	t.cur = t.cur[:0]
	t.mu.Unlock()
	t.on.Store(traced)
}

// traced reports whether the current op records spans.
func (t *tracer) traced() bool { return t.on.Load() }

// begin opens a span under parent and returns its ID (0 when untraced).
func (t *tracer) begin(name string, parent int32) int32 {
	if !t.on.Load() {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := t.base + int32(len(t.cur)) + 1
	t.cur = append(t.cur, span{Name: name, ID: id, Parent: parent, Op: t.op, Start: start, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.cur[id-t.base-1].End = end
	t.mu.Unlock()
}

// endOp folds the op's spans into the totals and checks that every child
// lies inside its parent.
func (t *tracer) endOp() {
	traced := t.on.Swap(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !traced {
		return
	}
	t.ops++
	if err := foldSpans(t.cur, t.base, t.totals); err != nil && t.nestErr == nil {
		t.nestErr = err
	}
	if room := maxKeptSpans - len(t.kept); room >= len(t.cur) {
		t.kept = append(t.kept, t.cur...)
	} else {
		t.dropped += len(t.cur)
	}
}

// discardOp drops the spans of a failed op, which may have been left
// open where the op stopped.
func (t *tracer) discardOp() {
	t.on.Store(false)
	t.mu.Lock()
	t.cur = t.cur[:0]
	t.mu.Unlock()
}

// foldSpans adds one op's spans to totals. A span's self time is its
// duration minus the union of its children's intervals, so children that
// ran concurrently on several workers are not subtracted twice.
func foldSpans(spans []span, base int32, totals map[string]*layerTotals) error {
	children := make(map[int32][][2]int64)
	var err error
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %s (id %d) was never closed", s.Name, s.ID)
		}
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-base-1]
		if (s.Start < p.Start || s.End > p.End) && err == nil {
			err = fmt.Errorf("span %s [%d,%d] lies outside its parent %s [%d,%d]",
				s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	for _, s := range spans {
		lt := totals[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			totals[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.Count++
		lt.Total += d
		lt.Self += d - time.Duration(covered(children[s.ID], s.Start, s.End))
	}
	return err
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// perOp returns a span name's mean busy time per traced op, in ms.
func (t *tracer) perOp(name string) float64 {
	if t.ops == 0 || t.totals[name] == nil {
		return 0
	}
	return ms(t.totals[name].Total) / float64(t.ops)
}

// selfPerOp returns a span name's mean self time per traced op, in ms.
func (t *tracer) selfPerOp(name string) float64 {
	if t.ops == 0 || t.totals[name] == nil {
		return 0
	}
	return ms(t.totals[name].Self) / float64(t.ops)
}

// count returns how many spans of name the traced ops recorded.
func (t *tracer) count(name string) float64 {
	if lt := t.totals[name]; lt != nil {
		return float64(lt.Count)
	}
	return 0
}

// names returns the recorded span names, sorted.
func (t *tracer) names() []string {
	var out []string
	for n := range t.totals {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// write stores the kept spans as dir/<workload>.trace.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, t.dropped, t.kept})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
