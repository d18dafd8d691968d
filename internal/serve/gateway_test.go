package serve

import (
	"testing"

	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// driveRun streams the sources through sink with the real transport loop
// and returns the full merged event log.
func driveRun(t testing.TB, sink Sink, sources []Source) []Event {
	t.Helper()
	var log []Event
	_, err := Run(sink, TransportConfig{FrameSamples: 24}, sources, func(evs []Event) {
		log = append(log, evs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// gatewaySources builds a deterministic multi-patient workload with
// staggered session lengths, so sessions finish in different drain
// cycles and slot/rank reuse is exercised.
func gatewaySources(t testing.TB, ids []uint32) []Source {
	t.Helper()
	recs := [][]int16{
		record(t, 0, 2500).Samples,
		record(t, 1, 2000).Samples,
		record(t, 2, 1500).Samples,
	}
	var srcs []Source
	for i, id := range ids {
		srcs = append(srcs, Source{Session: id, Samples: recs[i%len(recs)]})
	}
	return srcs
}

// TestGatewayBitIdentity is the sharding acceptance gate: under
// fault-free delivery the gateway's merged event stream must be
// bit-identical to a single unsharded Service for shard counts
// {1, 2, 4, 8} — across session churn, including a second wave of
// sessions reusing freed ranks.
func TestGatewayBitIdentity(t *testing.T) {
	cfg := Config{FS: record(t, 0, 8).FS, Pipeline: b9Config(), MaxSessions: 96}
	wave1 := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	wave2 := []uint32{21, 22, 23, 24, 25, 26}

	drive := func(sink Sink) []Event {
		log := driveRun(t, sink, gatewaySources(t, wave1))
		return append(log, driveRun(t, sink, gatewaySources(t, wave2))...)
	}

	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := drive(svc)
	if len(want) == 0 {
		t.Fatal("reference service produced no events")
	}

	for _, shards := range []int{1, 2, 4, 8} {
		g, err := NewGateway(GatewayConfig{Shards: shards, Service: cfg})
		if err != nil {
			t.Fatal(err)
		}
		got := drive(g)
		g.Close()
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d events, single service emitted %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d event %d: %+v != single-service %+v", shards, i, got[i], want[i])
			}
		}
		if st := g.Stats(); st.Evictions != 0 {
			t.Fatalf("shards=%d: %d evictions in a fault-free run", shards, st.Evictions)
		}
	}
}

// TestGatewayRoundAllocationFree: once warm, a single-shard gateway
// round — one frame per live session through Ingest, then Drain with
// its canonical merge — allocates nothing.
func TestGatewayRoundAllocationFree(t *testing.T) {
	const sessions, frameN = 16, 24
	rec := record(t, 0, 2400)
	g, err := NewGateway(GatewayConfig{Shards: 1, Service: Config{
		FS: rec.FS, Pipeline: b9Config(), MaxSessions: sessions, BufferSamples: 4 * frameN,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	pos := make([]int, sessions)
	seqs := make([]uint16, sessions)
	var buf []byte
	var events []Event
	emitted := 0
	round := func() {
		for s := range pos {
			p := pos[s]
			if p+frameN > len(rec.Samples) {
				p = 0
			}
			buf, seqs[s] = SplitFrames(buf[:0], uint32(s+1), seqs[s], 0, rec.Samples[p:p+frameN])
			if _, err := g.Ingest(buf); err != nil {
				t.Fatal(err)
			}
			pos[s] = p + frameN
		}
		events = g.Drain(events[:0])
		emitted += len(events)
	}
	// Warm a full record cycle so rings, detectors and event buffers
	// reach their steady size.
	for r := 0; r < len(rec.Samples)/frameN; r++ {
		round()
	}
	if emitted == 0 {
		t.Fatal("gateway rounds produced no events")
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("warm gateway round allocates %.2f objects, want 0", avg)
	}
	if st := g.Stats(); st.Evictions != 0 || st.Backpressure != 0 {
		t.Fatalf("steady rounds evicted %d sessions, backpressured %d frames", st.Evictions, st.Backpressure)
	}
}

// TestGatewayCloseIdempotent: Close must be callable any number of
// times, from any goroutine, concurrently with Ingest and Drain — and a
// gateway that lost its workers must still drain (inline) so buffered
// sessions are never stranded. Run under -race.
func TestGatewayCloseIdempotent(t *testing.T) {
	rec := record(t, 0, 1200)
	g, err := NewGateway(GatewayConfig{Shards: 4, Service: Config{FS: rec.FS, MaxSessions: 8}})
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, id := range []uint32{1, 2, 3} {
		buf, _ = SplitFrames(buf[:0], id, 0, FlagStart, rec.Samples[:128])
		if _, err := g.Ingest(buf); err != nil {
			t.Fatal(err)
		}
	}
	g.Drain(nil) // start the workers so Close has something to stop

	// Close racing Close racing Drain: exactly one wins, none panic.
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			g.Close()
		}()
	}
	go func() {
		defer func() { done <- struct{}{} }()
		g.Drain(nil)
	}()
	for i := 0; i < 5; i++ {
		<-done
	}
	g.Close() // and once more for good measure

	// The workers are gone, but the gateway still ingests and drains —
	// finish the sessions through the inline path.
	for _, id := range []uint32{1, 2, 3} {
		buf = AppendFrame(buf[:0], id, 2, FlagEnd, nil)
		if _, err := g.Ingest(buf); err != nil {
			t.Fatal(err)
		}
	}
	var events []Event
	for g.Buffered() > 0 {
		events = g.Drain(events)
	}
	events = g.Drain(events)
	finished := 0
	for _, ev := range events {
		if ev.Kind == EventFinished {
			finished++
		}
	}
	if finished != 3 {
		t.Fatalf("%d sessions finished after Close, want 3", finished)
	}
}

// TestGatewayHashSpread pins that the session hash actually distributes
// consecutive ids across shards (no shard monopolises the pool).
func TestGatewayHashSpread(t *testing.T) {
	g, err := NewGateway(GatewayConfig{Shards: 4, Service: Config{FS: 360}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	hit := make(map[int]int)
	for id := uint32(1); id <= 64; id++ {
		hit[g.shardOf(id)]++
	}
	if len(hit) != 4 {
		t.Fatalf("64 consecutive ids landed on %d of 4 shards: %v", len(hit), hit)
	}
	for shard, n := range hit {
		if n > 32 {
			t.Fatalf("shard %d owns %d of 64 sessions", shard, n)
		}
	}
}

// TestGatewayStatsAndAccessors covers the aggregate views: summed stats,
// per-session routing, and the session count.
func TestGatewayStatsAndAccessors(t *testing.T) {
	rec := record(t, 0, 1200)
	g, err := NewGateway(GatewayConfig{Shards: 2, Service: Config{FS: rec.FS, MaxSessions: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var buf []byte
	for _, id := range []uint32{1, 2, 3} {
		buf, _ = SplitFrames(buf[:0], id, 0, FlagStart, rec.Samples[:40])
		if _, err := g.Ingest(buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Sessions(); got != 3 {
		t.Fatalf("Sessions = %d, want 3", got)
	}
	if got := g.Buffered(); got != 120 {
		t.Fatalf("Buffered = %d, want 120", got)
	}
	if n, ok := backlog(g.shards[g.shardOf(2)], 2); !ok || n != 40 {
		t.Fatalf("backlog(2) = %d,%v, want 40,true", n, ok)
	}
	st := g.Stats()
	if st.Frames != 3 || st.Samples != 120 || st.Connects != 3 {
		t.Fatalf("summed stats off: %+v", st)
	}
	var per uint64
	for _, s := range g.shards {
		per += s.Stats().Frames
	}
	if per != st.Frames {
		t.Fatalf("shard stats sum %d != total %d", per, st.Frames)
	}
}

// TestGatewayFaultDeterminism pins end-to-end reproducibility: the same
// seed produces the identical merged event stream through fault-injected
// links, gateway sharding and gap concealment; a different seed diverges.
func TestGatewayFaultDeterminism(t *testing.T) {
	cfg := Config{FS: record(t, 0, 8).FS, Pipeline: pantompkins.AccurateConfig(),
		MaxSessions: 16, Conceal: GapHold}
	drive := func(seed uint64) []Event {
		g, err := NewGateway(GatewayConfig{Shards: 2, Service: cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		srcs := gatewaySources(t, []uint32{1, 2, 3, 4})
		for i := range srcs {
			srcs[i].Link = NewFaultLink(FaultConfig{
				Seed: seed + uint64(srcs[i].Session), Loss: 0.05, Dup: 0.02,
				Reorder: 0.03, Burst: 0.01, BurstLen: 4,
			})
		}
		return driveRun(t, g, srcs)
	}
	a, b := drive(42), drive(42)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %+v != %+v", i, a[i], b[i])
		}
	}
	c := drive(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical event streams")
	}
}
