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

// TestSessionLongRunBounded streams one B9 session at 360 Hz through
// Ingest and Drain for 10⁶ samples in 24-sample frames (a 60 s record,
// cycled). Past 2×10⁵ samples every ingest+drain step allocates nothing,
// and the live heap at 10⁶ samples exceeds the one at 2×10⁵ by at most
// 64 KiB: the ingest ring, the block scratch, the stage delay lines and
// the detector all stay bounded over an endless session.
func TestSessionLongRunBounded(t *testing.T) {
	const total, warm, frameN, growth = 1_000_000, 200_000, 24, 64 << 10
	gen, err := ecg.NSRDBConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	gen.FS = 360
	rec, err := gen.Generate("longrun-360", 60*360)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{FS: rec.FS, Pipeline: b9Config(), MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	var (
		buf    []byte
		events []Event
		seq    uint16
		pos    int
		frames int
		beats  int
	)
	step := func() {
		if pos+frameN > len(rec.Samples) {
			pos = 0
		}
		buf = AppendFrame(buf[:0], 1, seq, 0, rec.Samples[pos:pos+frameN])
		if _, err := s.Ingest(buf); err != nil {
			t.Fatal(err)
		}
		seq++
		pos += frameN
		frames++
		events = s.Drain(events[:0])
		for _, ev := range events {
			if ev.Kind == EventBeat {
				beats++
			}
		}
	}
	for frames*frameN < warm {
		step()
	}
	before, warmBeats := liveHeap(), beats
	// AllocsPerRun calls step once more than it counts.
	runs := (total+frameN-1)/frameN - frames - 1
	if avg := testing.AllocsPerRun(runs, step); avg != 0 {
		t.Fatalf("ingest+drain step allocates %.4f objects past %d samples, want 0", avg, warm)
	}
	after := liveHeap()
	drift := int64(after) - int64(before)
	t.Logf("%d samples, %d beats; live heap %+.1f KiB from sample %d", frames*frameN, beats, float64(drift)/1024, warm)
	if frames*frameN < total {
		t.Fatalf("streamed %d samples, want %d", frames*frameN, total)
	}
	if drift > growth {
		t.Fatalf("live heap grew %d bytes between %d and %d samples, want at most %d", drift, warm, frames*frameN, growth)
	}
	// The measured stretch is four times the warm-up over the same
	// cycled record, so a detector that keeps working finds more beats.
	if st := s.Stats(); st.Backpressure != 0 || st.Evictions != 0 || beats-warmBeats < warmBeats {
		t.Fatalf("%d beats before sample %d, %d after; %d backpressured frames, %d evictions",
			warmBeats, warm, beats-warmBeats, st.Backpressure, st.Evictions)
	}
}
