package serve

import (
	"sync"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// b9Config is the paper's B9 design, the approximate configuration the
// streaming examples run.
func b9Config() pantompkins.Config {
	var cfg pantompkins.Config
	ks := [pantompkins.NumStages]int{10, 12, 2, 8, 16}
	for i, s := range pantompkins.Stages {
		if ks[i] > 0 {
			cfg.Stage[s] = dsp.ArithConfig{LSBs: ks[i], Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
		}
	}
	return cfg
}

// record fetches a bundled NSRDB record.
func record(t testing.TB, i, n int) *ecg.Record {
	t.Helper()
	rec, err := ecg.NSRDBRecord(i, n)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// refDetection runs the reference Pipeline.Stream over samples and
// returns a deep copy of its finished Detection.
func refDetection(t testing.TB, cfg pantompkins.Config, fs int, samples []int16) pantompkins.Detection {
	t.Helper()
	p, err := pantompkins.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stream(fs)
	for _, x := range samples {
		st.Push(x)
	}
	det := st.Finish()
	return pantompkins.Detection{
		Peaks:    append([]int(nil), det.Peaks...),
		MWIPeaks: append([]int(nil), det.MWIPeaks...),
		Events:   append([]pantompkins.Event(nil), det.Events...),
	}
}

// sessionTrace is the per-session output collected from service events.
type sessionTrace struct {
	events   []pantompkins.Event
	peaks    []int
	finished bool
	evicted  bool
}

// collectTraces folds service events into per-session traces.
func collectTraces(traces map[uint32]*sessionTrace, events []Event) {
	for _, ev := range events {
		tr := traces[ev.Session]
		if tr == nil {
			tr = &sessionTrace{}
			traces[ev.Session] = tr
		}
		switch ev.Kind {
		case EventTrace:
			tr.events = append(tr.events, ev.Det)
		case EventBeat:
			tr.events = append(tr.events, ev.Det)
			tr.peaks = append(tr.peaks, ev.Peak)
		case EventEvicted:
			tr.evicted = true
		case EventFinished:
			tr.finished = true
		}
	}
}

// checkIdentical requires a collected trace to match a reference
// detection event for event and peak for peak.
func checkIdentical(t testing.TB, session uint32, tr *sessionTrace, want pantompkins.Detection) {
	t.Helper()
	if len(tr.events) != len(want.Events) {
		t.Fatalf("session %d: %d events, reference has %d", session, len(tr.events), len(want.Events))
	}
	for i := range want.Events {
		if tr.events[i] != want.Events[i] {
			t.Fatalf("session %d event %d: %+v != reference %+v", session, i, tr.events[i], want.Events[i])
		}
	}
	if len(tr.peaks) != len(want.Peaks) {
		t.Fatalf("session %d: %d peaks, reference has %d", session, len(tr.peaks), len(want.Peaks))
	}
	for i := range want.Peaks {
		if tr.peaks[i] != want.Peaks[i] {
			t.Fatalf("session %d peak %d: %d != reference %d", session, i, tr.peaks[i], want.Peaks[i])
		}
	}
}

// streamRecord frames a whole record into a service session with
// varying frame sizes (deterministic LCG), interleaving Drain calls.
func streamRecord(t testing.TB, s *Service, session uint32, samples []int16, events []Event, traces map[uint32]*sessionTrace) []Event {
	t.Helper()
	var buf []byte
	seq := uint16(session * 17) // arbitrary per-session starting sequence
	lcg := uint32(session*2654435761 + 12345)
	pos := 0
	for pos < len(samples) {
		lcg = lcg*1664525 + 1013904223
		n := 1 + int(lcg>>16)%MaxFrameSamples
		if pos+n > len(samples) {
			n = len(samples) - pos
		}
		flags := uint8(0)
		if pos == 0 {
			flags |= FlagStart
		}
		if pos+n == len(samples) {
			flags |= FlagEnd
		}
		buf = AppendFrame(buf[:0], session, seq, flags, samples[pos:pos+n])
		if _, err := s.Ingest(buf); err == ErrBackpressure {
			events = s.Drain(events[:0])
			collectTraces(traces, events)
			if _, err := s.Ingest(buf); err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		seq++
		pos += n
		if lcg&7 == 0 { // drain at irregular points
			events = s.Drain(events[:0])
			collectTraces(traces, events)
		}
	}
	events = s.Drain(events[:0])
	collectTraces(traces, events)
	return events
}

// TestServeBitIdentity streams several records through concurrent
// sessions of one service — irregular frame sizes, interleaved drains —
// and requires every session's event trace and peak list to be
// bit-identical to Pipeline.Stream over the same record.
func TestServeBitIdentity(t *testing.T) {
	for _, cfg := range []pantompkins.Config{pantompkins.AccurateConfig(), b9Config()} {
		rec0 := record(t, 0, 2500)
		s, err := New(Config{FS: rec0.FS, Pipeline: cfg, MaxSessions: 8})
		if err != nil {
			t.Fatal(err)
		}
		traces := make(map[uint32]*sessionTrace)
		var events []Event
		// Interleave three sessions frame by frame.
		recs := map[uint32][]int16{
			1: rec0.Samples,
			2: record(t, 1, 2500).Samples,
			3: record(t, 2, 2500).Samples,
		}
		type cursor struct {
			pos int
			seq uint16
		}
		curs := map[uint32]*cursor{1: {}, 2: {}, 3: {}}
		var buf []byte
		active := 3
		for round := 0; active > 0; round++ {
			for _, id := range []uint32{1, 2, 3} {
				c := curs[id]
				samples := recs[id]
				if c.pos >= len(samples) {
					continue
				}
				n := 9 + int(id) // distinct uneven frame sizes
				if c.pos+n > len(samples) {
					n = len(samples) - c.pos
				}
				flags := uint8(0)
				if c.pos+n == len(samples) {
					flags |= FlagEnd
				}
				buf = AppendFrame(buf[:0], id, c.seq, flags, samples[c.pos:c.pos+n])
				if _, err := s.Ingest(buf); err != nil {
					t.Fatal(err)
				}
				c.seq++
				c.pos += n
				if c.pos >= len(samples) {
					active--
				}
			}
			if round%3 == 0 {
				events = s.Drain(events[:0])
				collectTraces(traces, events)
			}
		}
		events = s.Drain(events[:0])
		collectTraces(traces, events)
		if s.Sessions() != 0 {
			t.Fatalf("%d sessions still live after FlagEnd drain", s.Sessions())
		}
		for id, samples := range recs {
			tr := traces[id]
			if tr == nil || !tr.finished {
				t.Fatalf("session %d did not finish", id)
			}
			checkIdentical(t, id, tr, refDetection(t, cfg, rec0.FS, samples))
		}
	}
}

// TestServeSessionChurn covers reconnect-in-place and eviction/reconnect:
// detection always restarts bit-identically over the post-restart
// samples, and samples buffered before a restart are discarded.
func TestServeSessionChurn(t *testing.T) {
	rec := record(t, 0, 3000)
	cfg := b9Config()
	s, err := New(Config{FS: rec.FS, Pipeline: cfg, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	traces := make(map[uint32]*sessionTrace)
	var events []Event
	half := len(rec.Samples) / 2

	// First half: stream and drain, then leave undrained leftovers that
	// the mid-record reconnect must discard.
	events = streamPlain(t, s, 7, 0, rec.Samples[:half], false)
	s.Drain(events[:0])
	nextSeq := uint16((half + 7) / 8) // streamPlain sent this many frames
	leftover := AppendFrame(nil, 7, nextSeq, 0, rec.Samples[half:half+16])
	if _, err := s.Ingest(leftover); err != nil {
		t.Fatal(err)
	}
	if got, _ := backlog(s, 7); got != 16 {
		t.Fatalf("pre-restart backlog = %d, want 16", got)
	}

	// Reconnect in place (FlagStart) and stream the second half.
	traces = make(map[uint32]*sessionTrace)
	events = streamPlain(t, s, 7, 1000, rec.Samples[half:], true)
	events = s.Drain(events)
	collectTraces(traces, events)
	if got := s.Stats().Reconnects; got != 1 {
		t.Fatalf("Reconnects = %d, want 1", got)
	}
	tr := traces[7]
	if tr == nil || !tr.finished {
		t.Fatal("reconnected session did not finish")
	}
	checkIdentical(t, 7, tr, refDetection(t, cfg, rec.FS, rec.Samples[half:]))

	// Eviction then reconnect: session 8 fills the single-slot pool
	// halfway, session 9 evicts it, then 8 reconnects and streams a
	// fresh record to completion.
	_ = streamPlain(t, s, 8, 0, rec.Samples[:half], false)
	probe := AppendFrame(nil, 9, 0, FlagStart, rec.Samples[:8])
	if _, err := s.Ingest(probe); err != nil {
		t.Fatal(err)
	}
	events = s.Drain(events[:0])
	traces = make(map[uint32]*sessionTrace)
	collectTraces(traces, events)
	if tr := traces[8]; tr == nil || !tr.evicted {
		t.Fatal("session 8 was not evicted by session 9's connect")
	}
	traces = make(map[uint32]*sessionTrace)
	events = streamPlain(t, s, 8, 0, rec.Samples, true) // evicts 9 in turn
	events = s.Drain(events)
	collectTraces(traces, events)
	tr = traces[8]
	if tr == nil || !tr.finished {
		t.Fatal("session 8 did not finish after reconnect")
	}
	checkIdentical(t, 8, tr, refDetection(t, cfg, rec.FS, rec.Samples))
}

// backlog returns the buffered sample count of a live session.
func backlog(s *Service, session uint32) (int, bool) {
	slot, ok := s.index[session]
	if !ok {
		return 0, false
	}
	return int(s.counts[slot]), true
}

// streamPlain streams samples in fixed 8-sample frames without draining,
// starting at the given sequence number, optionally draining between
// frames to keep the bounded buffer from filling.
func streamPlain(t testing.TB, s *Service, session uint32, seq0 int, samples []int16, end bool) []Event {
	t.Helper()
	var buf []byte
	var events []Event
	seq := uint16(seq0)
	for pos := 0; pos < len(samples); pos += 8 {
		n := 8
		if pos+n > len(samples) {
			n = len(samples) - pos
		}
		flags := uint8(0)
		if pos == 0 {
			flags |= FlagStart
		}
		if end && pos+n == len(samples) {
			flags |= FlagEnd
		}
		buf = AppendFrame(buf[:0], session, seq, flags, samples[pos:pos+n])
		if _, err := s.Ingest(buf); err == ErrBackpressure {
			events = s.Drain(events)
			if _, err := s.Ingest(buf); err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		seq++
	}
	return events
}

// TestServeFrameEdgeCases covers the transport fault model: truncated
// buffers, duplicate and future sequence numbers, corrupt counts and
// zero-sample control frames.
func TestServeFrameEdgeCases(t *testing.T) {
	rec := record(t, 0, 1200)
	s, err := New(Config{FS: rec.FS, MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Truncated: short header, then short payload.
	if _, err := s.Ingest(make([]byte, FrameHeader-1)); err != ErrTruncated {
		t.Fatalf("short header: err = %v, want ErrTruncated", err)
	}
	full := AppendFrame(nil, 1, 0, 0, rec.Samples[:10])
	if _, err := s.Ingest(full[:len(full)-1]); err != ErrTruncated {
		t.Fatalf("short payload: err = %v, want ErrTruncated", err)
	}
	// Corrupt count byte beyond MaxFrameSamples.
	bad := append([]byte(nil), full...)
	bad[6] = MaxFrameSamples + 1
	if _, err := s.Ingest(bad); err != ErrTruncated {
		t.Fatalf("oversized count: err = %v, want ErrTruncated", err)
	}
	if got := s.Stats().Truncated; got != 3 {
		t.Fatalf("Truncated = %d, want 3", got)
	}
	if s.Sessions() != 0 {
		t.Fatal("a rejected frame connected a session")
	}

	// In-order, duplicate, reordered-old and future frames: only the
	// in-order ones contribute samples, and detection over the accepted
	// sequence matches the reference over exactly those samples.
	var accepted []int16
	push := func(seq uint16, lo, hi int) {
		f := AppendFrame(nil, 1, seq, 0, rec.Samples[lo:hi])
		if _, err := s.Ingest(f); err != nil {
			t.Fatal(err)
		}
	}
	push(0, 0, 60)
	accepted = append(accepted, rec.Samples[0:60]...)
	push(0, 0, 60)    // duplicate: dropped
	push(5, 400, 460) // future (frames 1..4 lost): dropped
	push(1, 60, 120)  // in order
	accepted = append(accepted, rec.Samples[60:120]...)
	push(0, 500, 560) // stale replay: dropped
	push(2, 120, 180) // in order
	accepted = append(accepted, rec.Samples[120:180]...)
	st := s.Stats()
	if st.DupFrames != 2 || st.GapFrames != 1 {
		t.Fatalf("DupFrames=%d GapFrames=%d, want 2 and 1", st.DupFrames, st.GapFrames)
	}
	// Zero-count control frame carrying FlagEnd.
	if _, err := s.Ingest(AppendFrame(nil, 1, 3, FlagEnd, nil)); err != nil {
		t.Fatal(err)
	}
	traces := make(map[uint32]*sessionTrace)
	collectTraces(traces, s.Drain(nil))
	tr := traces[1]
	if tr == nil || !tr.finished {
		t.Fatal("control-frame FlagEnd did not finish the session")
	}
	checkIdentical(t, 1, tr, refDetection(t, pantompkins.AccurateConfig(), rec.FS, accepted))
}

// TestServeBackpressure checks the bounded buffer: a frame that does not
// fit is rejected without consuming it or corrupting the session, and
// succeeds verbatim after a drain.
func TestServeBackpressure(t *testing.T) {
	rec := record(t, 0, 1200)
	s, err := New(Config{FS: rec.FS, MaxSessions: 2, BufferSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	fill := AppendFrame(nil, 1, 0, 0, rec.Samples[:64])
	if _, err := s.Ingest(fill); err != nil {
		t.Fatal(err)
	}
	over := AppendFrame(nil, 1, 1, 0, rec.Samples[64:128])
	if n, err := s.Ingest(over); err != ErrBackpressure || n != 0 {
		t.Fatalf("overflow: n=%d err=%v, want 0 and ErrBackpressure", n, err)
	}
	if got, _ := backlog(s, 1); got != 64 {
		t.Fatalf("backlog after rejected frame = %d, want 64", got)
	}
	s.Drain(nil)
	if n, err := s.Ingest(over); err != nil || n != 1 {
		t.Fatalf("retry after drain: n=%d err=%v", n, err)
	}
	if got := s.Stats().Backpressure; got != 1 {
		t.Fatalf("Backpressure = %d, want 1", got)
	}
	// The accepted sequence is still gapless: 0..128.
	if _, err := s.Ingest(AppendFrame(nil, 1, 2, FlagEnd, nil)); err != nil {
		t.Fatal(err)
	}
	traces := make(map[uint32]*sessionTrace)
	collectTraces(traces, s.Drain(nil))
	checkIdentical(t, 1, traces[1], refDetection(t, pantompkins.AccurateConfig(), rec.FS, rec.Samples[:128]))
}

// TestServeEvictionOrdering pins the slow-consumer policy: the largest
// backlog is evicted first, ties go to the least recently active session.
func TestServeEvictionOrdering(t *testing.T) {
	rec := record(t, 0, 1200)
	mk := func() *Service {
		s, err := New(Config{FS: rec.FS, MaxSessions: 3, BufferSamples: 64})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	feed := func(s *Service, id uint32, n int) {
		f := AppendFrame(nil, id, 0, 0, rec.Samples[:n])
		if _, err := s.Ingest(f); err != nil {
			t.Fatal(err)
		}
	}
	evictedBy := func(s *Service) uint32 {
		if _, err := s.Ingest(AppendFrame(nil, 99, 0, 0, rec.Samples[:4])); err != nil {
			t.Fatal(err)
		}
		for _, ev := range s.Drain(nil) {
			if ev.Kind == EventEvicted {
				return ev.Session
			}
		}
		t.Fatal("full-pool connect evicted nothing")
		return 0
	}

	// Distinct backlogs: the deepest one goes.
	s := mk()
	feed(s, 1, 8)
	feed(s, 2, 32)
	feed(s, 3, 16)
	if got := evictedBy(s); got != 2 {
		t.Fatalf("evicted session %d, want 2 (largest backlog)", got)
	}

	// Equal backlogs: the least recently active goes.
	s = mk()
	feed(s, 1, 16)
	feed(s, 2, 16)
	feed(s, 3, 16)
	if got := evictedBy(s); got != 1 {
		t.Fatalf("evicted session %d, want 1 (least recently active)", got)
	}
	if got := s.Stats().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
}

// TestServeConcurrentShards runs one service shard per goroutine — the
// multi-core deployment shape — under the race detector: shards share the
// process-wide kernel caches but no service state, and every shard's
// sessions must stay bit-identical to the reference.
func TestServeConcurrentShards(t *testing.T) {
	cfg := b9Config()
	rec := record(t, 0, 2000)
	want := refDetection(t, cfg, rec.FS, rec.Samples)
	const shards = 4
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := New(Config{FS: rec.FS, Pipeline: cfg, MaxSessions: 4})
			if err != nil {
				t.Error(err)
				return
			}
			traces := make(map[uint32]*sessionTrace)
			var events []Event
			for id := uint32(1); id <= 2; id++ {
				events = streamRecord(t, s, id+uint32(w)*10, rec.Samples, events, traces)
			}
			for id := uint32(1); id <= 2; id++ {
				tr := traces[id+uint32(w)*10]
				if tr == nil || !tr.finished {
					t.Errorf("shard %d session %d did not finish", w, id)
					return
				}
				checkIdentical(t, id, tr, want)
			}
		}()
	}
	wg.Wait()
}
