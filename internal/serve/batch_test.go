package serve

import (
	"testing"

	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// drainScalar is the per-sample oracle of Service.Drain: every buffered
// sample goes through Stream.Push one at a time, slots in ascending
// order, with the same pending-event delivery, quantum, latency
// attribution, finish and trim handling as the block drain.
func (s *Service) drainScalar(events []Event) []Event {
	events = append(events, s.pending...)
	s.pending = s.pending[:0]
	var now int64
	if s.cfg.TrackLatency {
		now = s.nowFn()
	}
	for sl := range s.used {
		if !s.used[sl] {
			continue
		}
		slot := int32(sl)
		n := int(s.counts[slot])
		if q := s.cfg.Quantum; q > 0 && n > q {
			n = q
		}
		st := s.streams[slot]
		det := st.Detector().Detection()
		base := int(slot) * s.bufN
		head := int(s.heads[slot])
		for k := 0; k < n; k++ {
			idx := base + (head+k)%s.bufN
			st.Push(s.ring[idx])
			if len(det.Events) > int(s.emEvents[slot]) {
				var lat int64
				if s.cfg.TrackLatency {
					lat = now - s.ts[idx]
				}
				events = s.collect(slot, det, lat, events)
			}
		}
		s.heads[slot] = int32((head + n) % s.bufN)
		s.counts[slot] -= int32(n)
		if s.ended[slot] && s.counts[slot] == 0 {
			det = st.Finish()
			events = s.collect(slot, det, 0, events)
			events = append(events, Event{Session: s.ids[slot], Kind: EventFinished, Peak: -1})
			s.stats.Finishes++
			s.close(slot)
		} else {
			s.trim(slot)
		}
	}
	return events
}

// compareDrains runs two services built by mk — one drained by Drain a
// block per session, one by the per-sample drainScalar oracle — through
// an identical schedule of frames and drains over rec: sessions of
// staggered lengths up to samples (the live set churns as they finish),
// irregular frame sizes, a drain every other round, and a mid-record
// FlagStart reconnect of session 4. The two event streams must be
// identical element for element, and both services must end with no
// live session and equal stats. It returns every event Drain emitted.
func compareDrains(t *testing.T, mk func() *Service, rec *ecg.Record, sessions, samples int) []Event {
	t.Helper()
	batched, scalar := mk(), mk()
	var all, evA, evB []Event
	drains := 0
	drainBoth := func() {
		drains++
		evA = batched.Drain(evA[:0])
		evB = scalar.drainScalar(evB[:0])
		if len(evA) != len(evB) {
			t.Fatalf("drain %d: batched drain emitted %d events, scalar %d", drains, len(evA), len(evB))
		}
		for i := range evA {
			if evA[i] != evB[i] {
				t.Fatalf("drain %d, event %d: batched %+v, scalar %+v", drains, i, evA[i], evB[i])
			}
		}
		all = append(all, evA...)
	}
	ingestBoth := func(buf []byte) {
		_, errA := batched.Ingest(buf)
		_, errB := scalar.Ingest(buf)
		if errA != errB {
			t.Fatalf("ingest: batched err %v, scalar err %v", errA, errB)
		}
		if errA == ErrBackpressure {
			drainBoth()
			if _, err := batched.Ingest(buf); err != nil {
				t.Fatal(err)
			}
			if _, err := scalar.Ingest(buf); err != nil {
				t.Fatal(err)
			}
		} else if errA != nil {
			t.Fatal(errA)
		}
	}
	type cursor struct {
		pos, end int
		seq      uint16
	}
	curs := make([]cursor, sessions)
	for i := range curs {
		curs[i].end = max(samples-(i*97)%600, 200)
	}
	reconnected := false
	active := sessions
	for round := 0; active > 0; round++ {
		for id := range curs {
			c := &curs[id]
			if c.pos >= c.end {
				continue
			}
			n := min(5+(id*7+round*3)%19, c.end-c.pos)
			flags := uint8(0)
			if c.pos == 0 {
				flags |= FlagStart
			}
			if id == 3 && !reconnected && c.pos > c.end/2 {
				flags |= FlagStart
				reconnected = true
			}
			if c.pos+n == c.end {
				flags |= FlagEnd
			}
			ingestBoth(AppendFrame(nil, uint32(id+1), c.seq, flags, rec.Samples[c.pos:c.pos+n]))
			c.seq++
			c.pos += n
			if c.pos >= c.end {
				active--
			}
		}
		if round%2 == 0 {
			drainBoth()
		}
	}
	for i := 0; i < 4; i++ { // flush quantum-limited backlogs
		drainBoth()
	}
	if a, b := batched.Sessions(), scalar.Sessions(); a != 0 || b != 0 {
		t.Fatalf("sessions still live after final drains: batched %d, scalar %d", a, b)
	}
	if a, b := batched.Stats(), scalar.Stats(); a != b {
		t.Fatalf("stats diverged: batched %+v, scalar %+v", a, b)
	}
	return all
}

// TestServeBatchedMatchesScalarDrain runs compareDrains with a small ring
// and a quantum that force multi-round drains with ring wraparound.
func TestServeBatchedMatchesScalarDrain(t *testing.T) {
	type variant struct {
		name     string
		cfg      pantompkins.Config
		sessions int
		samples  int
	}
	variants := []variant{
		{"kernels/b9", b9Config(), 12, 1500},
		{"kernels/accurate", pantompkins.AccurateConfig(), 12, 1500},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			rec := record(t, 0, v.samples+v.sessions*40)
			compareDrains(t, func() *Service {
				s, err := New(Config{
					FS:          rec.FS,
					Pipeline:    v.cfg,
					MaxSessions: v.sessions,
					// Small ring + quantum: drains span several rounds
					// and the ring wraps mid-record.
					BufferSamples: 96,
					Quantum:       40,
				})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}, rec, v.sessions, v.samples)
		})
	}
}

// TestServeBatchedLatencyMatchesScalar repeats compareDrains with latency
// tracking on and a fake clock that advances on every call, so every
// frame gets its own ingest stamp and each drain a later now. The
// schedule's irregular frames make one drain block (Quantum 40) span
// several stamps, and the block drain must still attribute every event
// the latency of the sample whose push produced it, exactly as the
// per-sample oracle does.
func TestServeBatchedLatencyMatchesScalar(t *testing.T) {
	const sessions, samples = 12, 3000
	rec := record(t, 0, samples)
	events := compareDrains(t, func() *Service {
		var clock int64
		s, err := New(Config{
			FS:            rec.FS,
			Pipeline:      b9Config(),
			MaxSessions:   sessions,
			BufferSamples: 96,
			Quantum:       40,
			TrackLatency:  true,
			Now:           func() int64 { clock += 7; return clock },
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, rec, sessions, samples)
	nonzero := map[int64]bool{}
	for _, e := range events {
		if e.LatencyNs != 0 {
			nonzero[e.LatencyNs] = true
		}
	}
	if len(nonzero) < 2 {
		t.Fatalf("events carry %d distinct nonzero latencies: the schedule no longer tests latency attribution", len(nonzero))
	}
	t.Logf("%d events, %d distinct nonzero latencies", len(events), len(nonzero))
}

// TestServeDrainBoundsDetectorMemory pins the trim contract: after many
// drains of an endless session, the detector's retained trace stays
// small instead of growing with the stream.
func TestServeDrainBoundsDetectorMemory(t *testing.T) {
	rec := record(t, 0, 20000)
	s, err := New(Config{FS: rec.FS, Pipeline: pantompkins.AccurateConfig(), MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	seq := uint16(0)
	total := 0
	var buf []byte
	for pos := 0; pos+24 <= len(rec.Samples); pos += 24 {
		buf = AppendFrame(buf[:0], 1, seq, 0, rec.Samples[pos:pos+24])
		if _, err := s.Ingest(buf); err != nil {
			t.Fatal(err)
		}
		seq++
		events = s.Drain(events[:0])
		total += len(events)
		det, ok := s.Detection(1)
		if !ok {
			t.Fatal("session 1 not live")
		}
		if len(det.Events) > 64 || len(det.Peaks) > 64 {
			t.Fatalf("retained trace grew to %d events / %d peaks at sample %d",
				len(det.Events), len(det.Peaks), pos)
		}
	}
	if total == 0 {
		t.Fatal("stream produced no events")
	}
}
