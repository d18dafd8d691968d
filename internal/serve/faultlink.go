package serve

// The fault link models the delivery path between a wearable and the
// gateway: a BLE-class radio hop that loses, duplicates, reorders and
// burst-drops frames. Every fault decision is drawn from a splitmix64
// stream seeded by the caller, so a sweep or a test replays the exact
// same fault pattern from the same seed — delivery noise becomes a
// regression-gateable experiment input, like the arithmetic noise of
// internal/experiments/resilience.go.

// FaultConfig parameterises a FaultLink. All probabilities are per
// offered frame in [0,1]; zero values disable the corresponding fault.
type FaultConfig struct {
	// Seed selects the deterministic fault stream. Two links with equal
	// configs deliver byte-identical frame sequences.
	Seed uint64
	// Loss is the i.i.d. frame drop probability.
	Loss float64
	// Dup is the probability a delivered frame arrives twice.
	Dup float64
	// Reorder is the probability a frame is held back and delivered
	// after up to Delay later frames (it arrives late, out of order).
	Reorder float64
	// Delay bounds how many frames a reordered frame lags (default 3).
	Delay int
	// Burst is the probability per offered frame of entering a burst
	// dropout — a link outage that swallows whole frame runs, the
	// BLE-realistic loss shape (supervision timeouts, interference).
	Burst float64
	// BurstLen bounds a burst's length in frames; each burst draws its
	// length uniformly from [1,BurstLen] (default 8).
	BurstLen int
}

// FaultLink applies a deterministic, seeded fault pattern to a stream of
// encoded frames. It is transport-agnostic: Push offers one frame and
// returns the frames the far end receives now (zero or more — dropped,
// duplicated, or joined by previously held reordered frames); Flush
// returns the frames still in flight. Returned slices alias an internal
// buffer valid until the next Push or Flush.
type FaultLink struct {
	cfg     FaultConfig
	rng     uint64
	burst   int    // frames left in the current burst dropout
	offered uint64 // frames pushed so far, the clock of reorder deadlines
	held    []heldFrame
	out     [][]byte
}

type heldFrame struct {
	frame []byte
	due   uint64 // deliver after this many total offered frames
}

// NewFaultLink builds a link. A zero FaultConfig is a perfect link that
// delivers every frame immediately.
func NewFaultLink(cfg FaultConfig) *FaultLink {
	if cfg.Delay <= 0 {
		cfg.Delay = 3
	}
	if cfg.BurstLen <= 0 {
		cfg.BurstLen = 8
	}
	return &FaultLink{cfg: cfg, rng: cfg.Seed}
}

// next advances the splitmix64 stream.
func (l *FaultLink) next() uint64 {
	l.rng += 0x9E3779B97F4A7C15
	z := l.rng
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// roll draws one uniform [0,1) variate and compares it against p. The
// draw is consumed even when p is zero, so enabling one fault never
// shifts the random stream of the others.
func (l *FaultLink) roll(p float64) bool {
	u := float64(l.next()>>11) / (1 << 53)
	return u < p
}

// Push offers one encoded frame to the link and returns the frames
// delivered now, in arrival order. The input is copied when it must
// outlive the call (reordering), so the caller may reuse its buffer.
func (l *FaultLink) Push(frame []byte) [][]byte {
	l.out = l.out[:0]
	l.offered++

	drop := false
	if l.burst > 0 {
		l.burst--
		drop = true
	} else if l.roll(l.cfg.Burst) {
		// A burst of length uniform in [1,BurstLen] swallows this frame
		// and the next length-1 offers.
		l.burst = int(l.next() % uint64(l.cfg.BurstLen))
		drop = true
	} else if l.roll(l.cfg.Loss) {
		drop = true
	}

	if !drop {
		if l.roll(l.cfg.Reorder) {
			// Held back: this frame arrives after up to Delay later ones.
			lag := l.next()%uint64(l.cfg.Delay) + 1
			l.held = append(l.held, heldFrame{
				frame: append([]byte(nil), frame...),
				due:   l.offered + lag,
			})
		} else {
			l.out = append(l.out, frame)
			if l.roll(l.cfg.Dup) {
				l.out = append(l.out, frame)
			}
		}
	}

	// Release held frames whose lag has elapsed, in hold order.
	for i := 0; i < len(l.held); {
		if l.held[i].due <= l.offered {
			l.out = append(l.out, l.held[i].frame)
			l.held = append(l.held[:i], l.held[i+1:]...)
		} else {
			i++
		}
	}
	return l.out
}

// Flush returns every frame still held by the link, in hold order, and
// empties it. Call at end of stream so reordered frames are not lost.
func (l *FaultLink) Flush() [][]byte {
	l.out = l.out[:0]
	for _, h := range l.held {
		l.out = append(l.out, h.frame)
	}
	l.held = l.held[:0]
	return l.out
}
