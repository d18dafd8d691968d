package serve

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// liveHeap returns the live heap bytes a full collection marks.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestSessionMemoryBound bounds what a warm session keeps on the heap:
// 1,024 B9 sessions at 360 Hz run 60 rounds of 24-sample frames (4 s, so
// every detector is past its 2 s learning window), and the live heap may
// exceed the one before the Service by at most 8 KiB per session. A
// FlagStart on every session restarts each detector into a new learning
// window; after the same warm-up the bound must still hold.
func TestSessionMemoryBound(t *testing.T) {
	const sessions, rounds, frameN, perSession = 1024, 60, 24, 8 << 10
	gen, err := ecg.NSRDBConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	gen.FS = 360
	rec, err := gen.Generate("memory-360", rounds*frameN)
	if err != nil {
		t.Fatal(err)
	}
	// Build the design's kernel tables, which the process-wide cache
	// keeps, before the baseline.
	if _, err := pantompkins.New(b9Config()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, FrameHeader+2*frameN)
	seqs := make([]uint16, sessions)
	base := liveHeap()

	s, err := New(Config{FS: rec.FS, Pipeline: b9Config(), MaxSessions: sessions, BufferSamples: 4 * frameN})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	warm := func(first uint8) {
		for r := 0; r < rounds; r++ {
			flags := uint8(0)
			if r == 0 {
				flags = first
			}
			for id := range seqs {
				buf = AppendFrame(buf[:0], uint32(id+1), seqs[id], flags, rec.Samples[r*frameN:(r+1)*frameN])
				if _, err := s.Ingest(buf); err != nil {
					t.Fatal(err)
				}
				seqs[id]++
			}
			events = s.Drain(events[:0])
		}
		events = nil
	}
	check := func(label string) {
		t.Helper()
		live := liveHeap()
		per := (int64(live) - int64(base)) / sessions
		t.Logf("%s: %.1f KiB live per session", label, float64(per)/1024)
		if per > perSession {
			t.Fatalf("%s: %d live bytes per session, want at most %d", label, per, perSession)
		}
		if st := s.Stats(); st.Evictions != 0 || st.Backpressure != 0 {
			t.Fatalf("%s: %d evictions, %d backpressured frames", label, st.Evictions, st.Backpressure)
		}
	}
	warm(0)
	check("warm")
	warm(FlagStart)
	if st := s.Stats(); st.Reconnects != sessions {
		t.Fatalf("%d reconnects, want %d", st.Reconnects, sessions)
	}
	check("restarted")
}
