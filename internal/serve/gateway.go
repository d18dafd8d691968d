package serve

import (
	"fmt"
	"sort"
	"sync"
)

// GatewayConfig parameterises a Gateway.
type GatewayConfig struct {
	// Shards is the number of Service shards (default 1). Each shard is
	// a single-goroutine Service drained by its own worker, so the
	// useful ceiling is one shard per core.
	Shards int
	// Service configures every shard. MaxSessions is the total across
	// the gateway; each shard gets an equal share (rounded up).
	Service Config
}

// Gateway fans many patient sessions out across N Service shards: each
// session id hashes to one shard, frames route to it on Ingest, and
// Drain runs every shard's drain on its own worker goroutine before
// merging the per-shard event batches into one deterministic stream.
//
// The merged stream is canonical: per drain cycle, events are grouped by
// session, sessions ordered by their admission rank (the slot a single
// Service would have assigned, including slot reuse after finishes), and
// each session's events stay in generation order. Because a session's
// event sequence depends only on its own frames, the merged stream is
// bit-identical for every shard count — and, under fault-free delivery,
// bit-identical to one unsharded Service fed the same frames. Under
// faults, per-session subsequences still match the owning shard's
// Service exactly; only the interleaving of degraded-state events across
// sessions is defined by the canonical order rather than a single
// service's internal slot walk.
//
// Like Service, a Gateway is single-caller: Ingest and Drain must not be
// invoked concurrently. The drain workers only run inside Drain, so the
// caller's goroutine is the only one touching shard state in between.
type Gateway struct {
	shards []*Service
	cfg    GatewayConfig

	// Virtual slot assignment replicating a single Service's pool, so
	// the canonical merge order matches the unsharded drain order even
	// across session churn (finished sessions free their rank for
	// reuse, most recently freed first).
	rank     map[uint32]int32
	freeRank []int32
	nextRank int32

	// Drain workers, started lazily on the first multi-shard Drain.
	// mu serializes Drain against Close: Close is idempotent and safe to
	// call from any goroutine at any time, and a Drain that loses the
	// race falls back to draining the shards inline (the workers are
	// gone once done is closed).
	mu     sync.Mutex
	closed bool
	start  []chan struct{}
	wg     sync.WaitGroup
	outs   [][]Event
	keys   []int32
	sorter rankSort // merge's co-sort view, kept so a round boxes nothing
	once   sync.Once
	done   chan struct{}
}

// NewGateway builds a gateway of cfg.Shards Service shards.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	svcCfg := cfg.Service
	if svcCfg.MaxSessions <= 0 {
		svcCfg.MaxSessions = 1024
	}
	total := svcCfg.MaxSessions
	svcCfg.MaxSessions = (total + cfg.Shards - 1) / cfg.Shards
	g := &Gateway{
		cfg:  cfg,
		rank: make(map[uint32]int32, total),
		done: make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		s, err := New(svcCfg)
		if err != nil {
			return nil, err
		}
		g.shards = append(g.shards, s)
	}
	for r := int32(total) - 1; r >= 0; r-- {
		g.freeRank = append(g.freeRank, r)
	}
	g.nextRank = int32(total)
	g.outs = make([][]Event, cfg.Shards)
	return g, nil
}

// shardOf returns the shard a session id routes to.
func (g *Gateway) shardOf(session uint32) int {
	// Multiplicative hash: consecutive patient ids spread evenly.
	h := session * 0x9E3779B9
	h ^= h >> 16
	return int(h % uint32(len(g.shards)))
}

// Sessions returns the number of live sessions across all shards.
func (g *Gateway) Sessions() int {
	n := 0
	for _, s := range g.shards {
		n += s.Sessions()
	}
	return n
}

// Buffered returns the samples queued across all shards.
func (g *Gateway) Buffered() int {
	n := 0
	for _, s := range g.shards {
		n += s.Buffered()
	}
	return n
}

// Stats sums the shard counters.
func (g *Gateway) Stats() Stats {
	var t Stats
	for _, s := range g.shards {
		st := s.Stats()
		t.Frames += st.Frames
		t.Samples += st.Samples
		t.Connects += st.Connects
		t.Reconnects += st.Reconnects
		t.Evictions += st.Evictions
		t.Finishes += st.Finishes
		t.DupFrames += st.DupFrames
		t.GapFrames += st.GapFrames
		t.Reordered += st.Reordered
		t.LostFrames += st.LostFrames
		t.Concealed += st.Concealed
		t.GapRestarts += st.GapRestarts
		t.Truncated += st.Truncated
		t.Backpressure += st.Backpressure
	}
	return t
}

// Ingest routes the frames packed in buf to their owning shards, frame
// by frame, and returns the number of frames consumed. The error
// contract is Service.Ingest's: ErrBackpressure leaves the offending
// frame unconsumed (Drain and re-offer the remainder), ErrTruncated
// reports a buffer ending mid-frame.
func (g *Gateway) Ingest(buf []byte) (int, error) {
	frames := 0
	for len(buf) > 0 {
		hdr, _, n, err := parseFrame(buf)
		if err != nil {
			return frames, err
		}
		if _, seen := g.rank[hdr.session]; !seen {
			g.admit(hdr.session)
		}
		if _, err := g.shards[g.shardOf(hdr.session)].Ingest(buf[:n]); err != nil {
			return frames, err
		}
		buf = buf[n:]
		frames++
	}
	return frames, nil
}

// admit assigns a session its merge rank — the slot number a single
// Service's free stack would have produced.
func (g *Gateway) admit(session uint32) {
	if n := len(g.freeRank); n > 0 {
		g.rank[session] = g.freeRank[n-1]
		g.freeRank = g.freeRank[:n-1]
		return
	}
	g.rank[session] = g.nextRank
	g.nextRank++
}

// release returns a finished session's rank to the pool.
func (g *Gateway) release(session uint32) {
	if r, ok := g.rank[session]; ok {
		delete(g.rank, session)
		g.freeRank = append(g.freeRank, r)
	}
}

// Drain drains every shard — in parallel on the per-shard workers when
// the gateway has more than one — and appends the canonical merge of
// their event batches to events.
func (g *Gateway) Drain(events []Event) []Event {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.shards) == 1 || g.closed {
		// Single shard, or the workers already shut down: drain inline.
		for i, s := range g.shards {
			g.outs[i] = s.Drain(g.outs[i][:0])
		}
	} else {
		g.once.Do(g.startWorkers)
		g.wg.Add(len(g.shards))
		for _, ch := range g.start {
			ch <- struct{}{}
		}
		g.wg.Wait()
	}
	return g.merge(events)
}

// startWorkers spins up one persistent drain worker per shard.
func (g *Gateway) startWorkers() {
	g.start = make([]chan struct{}, len(g.shards))
	for i := range g.shards {
		ch := make(chan struct{})
		g.start[i] = ch
		go func(i int) {
			for {
				select {
				case <-ch:
					g.outs[i] = g.shards[i].Drain(g.outs[i][:0])
					g.wg.Done()
				case <-g.done:
					return
				}
			}
		}(i)
	}
}

// Close stops the drain workers. It is idempotent and safe to call from
// any goroutine, including concurrently with Ingest and Drain: a Drain
// in flight finishes on the workers first, and any later Drain or Ingest
// still works — the shards are drained inline once the workers are gone.
func (g *Gateway) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	close(g.done)
}

// merge concatenates the per-shard drain batches in canonical order:
// stable-sorted by session admission rank, which preserves each
// session's internal event order and is independent of the shard count.
func (g *Gateway) merge(events []Event) []Event {
	base := len(events)
	for _, out := range g.outs {
		events = append(events, out...)
	}
	batch := events[base:]
	g.keys = g.keys[:0]
	for i := range batch {
		if r, ok := g.rank[batch[i].Session]; ok {
			g.keys = append(g.keys, r)
		} else {
			// A session unknown to the rank map (already released)
			// sorts last; cannot happen for live sessions.
			g.keys = append(g.keys, g.nextRank)
		}
	}
	g.sorter = rankSort{ev: batch, key: g.keys}
	sort.Stable(&g.sorter)
	g.sorter.ev = nil // do not pin the caller's buffer
	// Free the ranks of sessions that ended this cycle, in merged
	// order — the moment a single Service would have recycled their
	// slots.
	for i := range batch {
		if k := batch[i].Kind; k == EventFinished || k == EventEvicted {
			g.release(batch[i].Session)
		}
	}
	return events
}

// rankSort co-sorts an event batch with its rank keys.
type rankSort struct {
	ev  []Event
	key []int32
}

func (m *rankSort) Len() int           { return len(m.ev) }
func (m *rankSort) Less(i, j int) bool { return m.key[i] < m.key[j] }
func (m *rankSort) Swap(i, j int) {
	m.ev[i], m.ev[j] = m.ev[j], m.ev[i]
	m.key[i], m.key[j] = m.key[j], m.key[i]
}

var _ Sink = (*Gateway)(nil)
var _ Sink = (*Service)(nil)

// String renders the gateway shape for logs.
func (g *Gateway) String() string {
	return fmt.Sprintf("gateway{%d shards, %d sessions}", len(g.shards), g.Sessions())
}
