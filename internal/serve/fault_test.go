package serve

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// TestSplitFrames checks the chunking helper: frame sizing, sequence
// numbering, flag placement and sample round-trip.
func TestSplitFrames(t *testing.T) {
	samples := make([]int16, 2*MaxFrameSamples+17)
	for i := range samples {
		samples[i] = int16(i - 50)
	}
	buf, next := SplitFrames(nil, 9, 100, FlagStart|FlagEnd, samples)
	if want := uint16(103); next != want {
		t.Fatalf("next seq = %d, want %d", next, want)
	}
	var got []int16
	frame := 0
	for len(buf) > 0 {
		hdr, payload, n, err := parseFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.session != 9 || hdr.seq != uint16(100+frame) {
			t.Fatalf("frame %d: session %d seq %d", frame, hdr.session, hdr.seq)
		}
		wantFlags := uint8(0)
		if frame == 0 {
			wantFlags |= FlagStart
		}
		if frame == 2 {
			wantFlags |= FlagEnd
		}
		if hdr.flags != wantFlags {
			t.Fatalf("frame %d flags = %b, want %b", frame, hdr.flags, wantFlags)
		}
		for i := 0; i < hdr.count; i++ {
			got = append(got, sampleAt(payload, i))
		}
		buf = buf[n:]
		frame++
	}
	if frame != 3 {
		t.Fatalf("split into %d frames, want 3", frame)
	}
	if len(got) != len(samples) {
		t.Fatalf("round-tripped %d samples, want %d", len(got), len(samples))
	}
	for i := range samples {
		if got[i] != samples[i] {
			t.Fatalf("sample %d: %d != %d", i, got[i], samples[i])
		}
	}

	// An empty slice is one control frame carrying the flags.
	buf, next = SplitFrames(nil, 9, 7, FlagEnd, nil)
	hdr, _, n, err := parseFrame(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("control frame: n=%d err=%v", n, err)
	}
	if hdr.count != 0 || hdr.flags != FlagEnd || next != 8 {
		t.Fatalf("control frame: count=%d flags=%b next=%d", hdr.count, hdr.flags, next)
	}
}

// TestSplitFramesN covers the explicit-size splitter: a frame size
// outside (0, MaxFrameSamples] is rejected with ErrFrameSize leaving dst
// and seq untouched, and a legal custom size chunks accordingly.
func TestSplitFramesN(t *testing.T) {
	samples := make([]int16, 100)
	for i := range samples {
		samples[i] = int16(i)
	}
	for _, bad := range []int{0, -1, MaxFrameSamples + 1, 1 << 20} {
		dst := []byte{0xAA}
		out, seq, err := SplitFramesN(dst, 1, 5, FlagStart, samples, bad)
		if !errors.Is(err, ErrFrameSize) {
			t.Fatalf("frameSamples=%d: err = %v, want ErrFrameSize", bad, err)
		}
		if len(out) != 1 || out[0] != 0xAA || seq != 5 {
			t.Fatalf("frameSamples=%d: rejected call mutated dst/seq", bad)
		}
	}
	buf, next, err := SplitFramesN(nil, 1, 0, FlagStart|FlagEnd, samples, 40)
	if err != nil {
		t.Fatal(err)
	}
	if next != 3 {
		t.Fatalf("next seq = %d, want 3", next)
	}
	counts := []int{40, 40, 20}
	for i := 0; len(buf) > 0; i++ {
		hdr, _, n, err := parseFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.count != counts[i] {
			t.Fatalf("frame %d count = %d, want %d", i, hdr.count, counts[i])
		}
		buf = buf[n:]
	}
	// And zero samples still encode one control frame.
	buf, next, err = SplitFramesN(nil, 2, 9, FlagEnd, nil, 16)
	if err != nil || next != 10 {
		t.Fatalf("control frame: next=%d err=%v", next, err)
	}
	if hdr, _, n, _ := parseFrame(buf); hdr.count != 0 || n != len(buf) {
		t.Fatal("control frame misencoded")
	}
}

// TestSeqWrapReconnect: sequence numbers crossing the uint16 wrap must
// not read as gaps, and a mid-wrap FlagStart — a device rebooting and
// re-keying its counter — restarts the session cleanly with detection
// bit-identical to a fresh stream.
func TestSeqWrapReconnect(t *testing.T) {
	rec := record(t, 0, 2400)
	s, err := New(Config{FS: rec.FS, MaxSessions: 2, BufferSamples: 4096, Conceal: GapHold})
	if err != nil {
		t.Fatal(err)
	}
	// Stream 1: frames seq 65531..65535,0..4 — straight across the wrap.
	const n = 60
	seq := uint16(65531)
	pos := 0
	for i := 0; i < 10; i++ {
		flags := uint8(0)
		if i == 0 {
			flags = FlagStart
		}
		sendFrame(t, s, 1, seq, flags, rec.Samples[pos:pos+n])
		seq++
		pos += n
	}
	s.Drain(nil)
	if st := s.Stats(); st.GapFrames != 0 || st.LostFrames != 0 || st.Reordered != 0 {
		t.Fatalf("wraparound read as faults: %+v", st)
	}

	// Reconnect mid-wrap: FlagStart at an unrelated sequence discards the
	// old stream and starts fresh, crossing the wrap again.
	post := rec.Samples[pos:]
	buf, _ := SplitFrames(nil, 1, 65533, FlagStart|FlagEnd, post)
	if _, err := s.Ingest(buf); err != nil {
		t.Fatal(err)
	}
	traces := make(map[uint32]*sessionTrace)
	var events []Event
	for s.Buffered() > 0 {
		events = s.Drain(events[:0])
		collectTraces(traces, events)
	}
	collectTraces(traces, s.Drain(nil))
	st := s.Stats()
	if st.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", st.Reconnects)
	}
	if st.GapFrames != 0 || st.LostFrames != 0 {
		t.Fatalf("post-reconnect wrap read as gaps: %+v", st)
	}
	tr := traces[1]
	if tr == nil || !tr.finished {
		t.Fatal("session did not finish after mid-wrap reconnect")
	}
	checkIdentical(t, 1, tr, refDetection(t, pantompkins.AccurateConfig(), rec.FS, post))
}

// linkTranscript pushes frames through a link and returns the delivered
// byte stream (frames concatenated with separators) plus final stats.
func linkTranscript(cfg FaultConfig, frames int) ([]byte, FaultStats) {
	l := NewFaultLink(cfg)
	var out []byte
	push := func(fs [][]byte) {
		for _, f := range fs {
			out = append(out, f...)
			out = append(out, 0xFE, 0xFD)
		}
	}
	var frame []byte
	for i := 0; i < frames; i++ {
		frame, _ = SplitFrames(frame[:0], 1, uint16(i), 0, []int16{int16(i), int16(i * 3)})
		push(l.Push(frame))
	}
	push(l.Flush())
	return out, l.Stats()
}

// TestFaultLinkDeterminism pins that the fault pattern is a pure
// function of the seed.
func TestFaultLinkDeterminism(t *testing.T) {
	cfg := FaultConfig{Seed: 7, Loss: 0.1, Dup: 0.05, Reorder: 0.1, Burst: 0.02, BurstLen: 5}
	a, sa := linkTranscript(cfg, 500)
	b, sb := linkTranscript(cfg, 500)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different delivery")
	}
	if sa != sb {
		t.Fatalf("same seed produced different stats: %+v vs %+v", sa, sb)
	}
	cfg.Seed = 8
	c, _ := linkTranscript(cfg, 500)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical delivery")
	}
}

// TestFaultLinkRates sanity-checks the fault machinery against its
// configured probabilities and the conservation of frames.
func TestFaultLinkRates(t *testing.T) {
	const n = 20000
	_, st := linkTranscript(FaultConfig{Seed: 3, Loss: 0.3}, n)
	if st.Offered != n {
		t.Fatalf("Offered = %d", st.Offered)
	}
	if rate := float64(st.Dropped) / n; rate < 0.25 || rate > 0.35 {
		t.Fatalf("loss 0.3 dropped at rate %.3f", rate)
	}
	if st.Delivered+st.Dropped != n {
		t.Fatalf("frames not conserved: %d delivered + %d dropped != %d", st.Delivered, st.Dropped, n)
	}

	_, st = linkTranscript(FaultConfig{Seed: 3, Burst: 0.02, BurstLen: 8}, n)
	if st.BurstDrops == 0 || st.BurstDrops != st.Dropped {
		t.Fatalf("burst-only config: BurstDrops=%d Dropped=%d", st.BurstDrops, st.Dropped)
	}
	// Mean burst length (1+8)/2 = 4.5 frames at 2% entry: expect far
	// more drops than entries but bounded.
	if rate := float64(st.Dropped) / n; rate < 0.04 || rate > 0.16 {
		t.Fatalf("burst dropout rate %.3f outside [0.04,0.16]", rate)
	}

	_, st = linkTranscript(FaultConfig{Seed: 3, Dup: 0.2}, n)
	if st.Duplicated == 0 || st.Delivered != n+st.Duplicated {
		t.Fatalf("dup config: Delivered=%d Duplicated=%d", st.Delivered, st.Duplicated)
	}

	_, st = linkTranscript(FaultConfig{Seed: 3, Reorder: 0.2, Delay: 4}, n)
	if st.Reordered == 0 || st.Delivered != n {
		t.Fatalf("reorder config: Delivered=%d Reordered=%d", st.Delivered, st.Reordered)
	}
}

// TestFaultLinkPerfect: the zero config is a pass-through.
func TestFaultLinkPerfect(t *testing.T) {
	l := NewFaultLink(FaultConfig{})
	frame, _ := SplitFrames(nil, 1, 0, 0, []int16{1, 2, 3})
	out := l.Push(frame)
	if len(out) != 1 || !bytes.Equal(out[0], frame) {
		t.Fatalf("perfect link mangled the frame: %d frames out", len(out))
	}
	if fs := l.Flush(); len(fs) != 0 {
		t.Fatalf("perfect link held %d frames", len(fs))
	}
}

// concealService builds a service with the given policy over the
// accurate pipeline.
func concealService(t *testing.T, fs int, policy GapPolicy, restartAt int) *Service {
	t.Helper()
	s, err := New(Config{FS: fs, MaxSessions: 2, BufferSamples: 4096,
		Conceal: policy, GapRestartSamples: restartAt})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sendFrame encodes and ingests one frame, failing the test on error.
func sendFrame(t *testing.T, s *Service, id uint32, seq uint16, flags uint8, samples []int16) {
	t.Helper()
	buf := AppendFrame(nil, id, seq, flags, samples)
	if _, err := s.Ingest(buf); err != nil {
		t.Fatal(err)
	}
}

// TestGapConcealment checks GapHold and GapZero end to end: the detector
// runs over exactly the accepted samples with the concealed span
// synthesized in place, EventGap reports the span, and the counters and
// per-session health add up.
func TestGapConcealment(t *testing.T) {
	rec := record(t, 0, 1200)
	for _, policy := range []GapPolicy{GapHold, GapZero} {
		s := concealService(t, rec.FS, policy, 0)

		// Frames 0,1 arrive; frames 2,3 are lost; frame 4 arrives.
		const n = 60
		sendFrame(t, s, 1, 0, 0, rec.Samples[0*n:1*n])
		sendFrame(t, s, 1, 1, 0, rec.Samples[1*n:2*n])
		sendFrame(t, s, 1, 4, 0, rec.Samples[4*n:5*n])
		sendFrame(t, s, 1, 5, FlagEnd, nil)

		// The accepted stream the detector must see: two real frames,
		// 2*n concealed samples, then the fourth real frame.
		accepted := append([]int16(nil), rec.Samples[:2*n]...)
		fill := rec.Samples[2*n-1]
		if policy == GapZero {
			fill = 0
		}
		for i := 0; i < 2*n; i++ {
			accepted = append(accepted, fill)
		}
		accepted = append(accepted, rec.Samples[4*n:5*n]...)

		traces := make(map[uint32]*sessionTrace)
		events := s.Drain(nil)
		collectTraces(traces, events)
		var gapEv *Event
		for i, ev := range events {
			if ev.Kind == EventGap {
				gapEv = &events[i]
			}
		}
		if gapEv == nil {
			t.Fatalf("%v: no EventGap emitted", policy)
		}
		if gapEv.Session != 1 || gapEv.Gap != 2*n {
			t.Fatalf("%v: EventGap %+v, want session 1 gap %d", policy, gapEv, 2*n)
		}
		st := s.Stats()
		if st.GapFrames != 1 || st.LostFrames != 2 || st.Concealed != 2*n {
			t.Fatalf("%v: GapFrames=%d LostFrames=%d Concealed=%d", policy, st.GapFrames, st.LostFrames, st.Concealed)
		}
		tr := traces[1]
		if tr == nil || !tr.finished {
			t.Fatalf("%v: session did not finish", policy)
		}
		checkIdentical(t, 1, tr, refDetection(t, pantompkins.AccurateConfig(), rec.FS, accepted))
	}
}

// TestGapRestart checks the over-threshold path: a long outage restarts
// the detector in place, discarding the pre-gap backlog, and detection
// afterwards is bit-identical to a fresh stream over the post-gap
// samples.
func TestGapRestart(t *testing.T) {
	rec := record(t, 0, 3000)
	const n = 60
	s := concealService(t, rec.FS, GapRestart, 5*n)

	// Two frames arrive and stay buffered (no drain), then a 10-frame
	// outage — over the 5-frame threshold — and the stream resumes.
	sendFrame(t, s, 1, 0, 0, rec.Samples[0*n:1*n])
	sendFrame(t, s, 1, 1, 0, rec.Samples[1*n:2*n])
	post := rec.Samples[12*n : 22*n]
	buf, _ := SplitFrames(nil, 1, 12, FlagEnd, post)
	if _, err := s.Ingest(buf); err != nil {
		t.Fatal(err)
	}

	traces := make(map[uint32]*sessionTrace)
	events := s.Drain(nil)
	collectTraces(traces, events)
	gap := false
	for _, ev := range events {
		if ev.Kind == EventGap {
			gap = true
			// The estimate scales the gap width by the arriving frame's
			// sample count (64, SplitFrames' chunk size).
			if ev.Gap != 10*64 {
				t.Fatalf("EventGap.Gap = %d, want %d", ev.Gap, 10*64)
			}
		}
	}
	if !gap {
		t.Fatal("no EventGap for the restart")
	}
	st := s.Stats()
	if st.GapRestarts != 1 || st.Concealed != 0 {
		t.Fatalf("GapRestarts=%d Concealed=%d, want 1 and 0", st.GapRestarts, st.Concealed)
	}
	tr := traces[1]
	if tr == nil || !tr.finished {
		t.Fatal("session did not finish")
	}
	// The pre-gap backlog was discarded: detection covers post only.
	checkIdentical(t, 1, tr, refDetection(t, pantompkins.AccurateConfig(), rec.FS, post))
}

// TestGapShortUnderRestart: below the threshold GapRestart conceals like
// GapHold and keeps the session's health history.
func TestGapShortUnderRestart(t *testing.T) {
	rec := record(t, 0, 1200)
	const n = 30
	s := concealService(t, rec.FS, GapRestart, 1000)
	sendFrame(t, s, 1, 0, 0, rec.Samples[:n])
	sendFrame(t, s, 1, 2, 0, rec.Samples[2*n:3*n]) // frame 1 lost: n concealed
	h, ok := s.SessionHealth(1)
	if !ok || h.Gaps != 1 || h.Concealed != n || h.Restarts != 0 {
		t.Fatalf("health = %+v,%v", h, ok)
	}
	if st := s.Stats(); st.GapRestarts != 0 || st.Concealed != n {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGapDupVsReordered pins the acceptance-bitmap classification: with
// concealment on, a frame whose sequence was accepted is a duplicate,
// one whose slot was synthesized past is reordered.
func TestGapDupVsReordered(t *testing.T) {
	rec := record(t, 0, 1200)
	const n = 30
	s := concealService(t, rec.FS, GapHold, 0)
	sendFrame(t, s, 1, 0, 0, rec.Samples[:n])
	sendFrame(t, s, 1, 2, 0, rec.Samples[2*n:3*n]) // frame 1 lost, concealed
	sendFrame(t, s, 1, 1, 0, rec.Samples[n:2*n])   // arrives late: reordered
	sendFrame(t, s, 1, 2, 0, rec.Samples[2*n:3*n]) // true duplicate
	st := s.Stats()
	if st.Reordered != 1 || st.DupFrames != 1 {
		t.Fatalf("Reordered=%d DupFrames=%d, want 1 and 1", st.Reordered, st.DupFrames)
	}
}

// TestGapBackpressureAccountsOnce: a gap frame rejected by a full buffer
// must not double-count the gap when re-offered after a drain.
func TestGapBackpressureAccountsOnce(t *testing.T) {
	rec := record(t, 0, 1200)
	s, err := New(Config{FS: rec.FS, MaxSessions: 1, BufferSamples: 128, Conceal: GapHold})
	if err != nil {
		t.Fatal(err)
	}
	sendFrame(t, s, 1, 0, 0, rec.Samples[:64])
	// Frame 1 lost; frame 2 needs 64 concealed + 64 own = 128 > 64 free.
	over := AppendFrame(nil, 1, 2, 0, rec.Samples[128:192])
	if _, err := s.Ingest(over); err != ErrBackpressure {
		t.Fatalf("err = %v, want ErrBackpressure", err)
	}
	if st := s.Stats(); st.GapFrames != 0 || st.LostFrames != 0 || st.Concealed != 0 {
		t.Fatalf("rejected gap frame mutated counters: %+v", st)
	}
	s.Drain(nil)
	if _, err := s.Ingest(over); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.GapFrames != 1 || st.LostFrames != 1 || st.Concealed != 64 {
		t.Fatalf("retry accounting: GapFrames=%d LostFrames=%d Concealed=%d", st.GapFrames, st.LostFrames, st.Concealed)
	}
	events := s.Drain(nil)
	gaps := 0
	for _, ev := range events {
		if ev.Kind == EventGap {
			gaps++
		}
	}
	if gaps != 1 {
		t.Fatalf("%d EventGap events, want exactly 1", gaps)
	}
}

// TestGapClamp: a gap far larger than the buffer conceals only what fits
// so the session can always make progress.
func TestGapClamp(t *testing.T) {
	rec := record(t, 0, 1200)
	s, err := New(Config{FS: rec.FS, MaxSessions: 1, BufferSamples: 100, Conceal: GapZero})
	if err != nil {
		t.Fatal(err)
	}
	sendFrame(t, s, 1, 0, 0, rec.Samples[:32])
	s.Drain(nil)
	// 1000 frames lost: the estimate (32000 samples) clamps to what an
	// empty buffer can hold next to the frame itself.
	sendFrame(t, s, 1, 1001, 0, rec.Samples[64:96])
	if st := s.Stats(); st.Concealed != 100-32 {
		t.Fatalf("Concealed = %d, want %d", st.Concealed, 100-32)
	}
}

// TestTransportRunFaultFree: the transport loop over a perfect link
// reproduces the reference detection for every session.
func TestTransportRunFaultFree(t *testing.T) {
	cfg := b9Config()
	rec := record(t, 0, 2500)
	svc, err := New(Config{FS: rec.FS, Pipeline: cfg, MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	traces := make(map[uint32]*sessionTrace)
	st, err := Run(svc, TransportConfig{FrameSamples: 24},
		[]Source{{Session: 1, Samples: rec.Samples}, {Session: 2, Samples: rec.Samples}},
		func(evs []Event) { collectTraces(traces, evs) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != 0 || st.Frames == 0 {
		t.Fatalf("transport stats: %+v", st)
	}
	want := refDetection(t, cfg, rec.FS, rec.Samples)
	for _, id := range []uint32{1, 2} {
		tr := traces[id]
		if tr == nil || !tr.finished {
			t.Fatalf("session %d did not finish", id)
		}
		checkIdentical(t, id, tr, want)
	}
}

// TestTransportEmptySource: a source with no samples frames nothing and
// does not keep the loop running; the other sessions finish as usual.
func TestTransportEmptySource(t *testing.T) {
	rec := record(t, 0, 500)
	svc, err := New(Config{FS: rec.FS, MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	traces := make(map[uint32]*sessionTrace)
	done := make(chan error, 1)
	var st TransportStats
	go func() {
		var err error
		st, err = Run(svc, TransportConfig{FrameSamples: 24},
			[]Source{{Session: 1}, {Session: 2, Samples: rec.Samples}},
			func(evs []Event) { collectTraces(traces, evs) })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return with an empty source")
	}
	if want := uint64((len(rec.Samples) + 23) / 24); st.Frames != want {
		t.Fatalf("%d frames, want %d", st.Frames, want)
	}
	if traces[1] != nil {
		t.Fatal("the empty source produced events")
	}
	if tr := traces[2]; tr == nil || !tr.finished {
		t.Fatal("session 2 did not finish")
	}
}

// TestTransportBackpressureRetry: a sink too small for a whole record
// forces ErrBackpressure; the loop's drain-backoff must deliver every
// sample anyway (no shed frames, gap-free detection).
func TestTransportBackpressureRetry(t *testing.T) {
	rec := record(t, 0, 1500)
	svc, err := New(Config{FS: rec.FS, MaxSessions: 2, BufferSamples: 48, Quantum: 16})
	if err != nil {
		t.Fatal(err)
	}
	traces := make(map[uint32]*sessionTrace)
	st, err := Run(svc, TransportConfig{FrameSamples: 32},
		[]Source{{Session: 1, Samples: rec.Samples}},
		func(evs []Event) { collectTraces(traces, evs) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries == 0 {
		t.Fatal("expected backpressure retries with a 48-sample buffer")
	}
	if st.Shed != 0 {
		t.Fatalf("%d frames shed despite retries", st.Shed)
	}
	tr := traces[1]
	if tr == nil || !tr.finished {
		t.Fatal("session did not finish")
	}
	checkIdentical(t, 1, tr, refDetection(t, pantompkins.AccurateConfig(), rec.FS, rec.Samples))
}
