package kernel

import (
	"math"
	"sync"
	"sync/atomic"
)

// fillStep is the granularity of an on-demand fill, in operand
// magnitudes: a fill that has to grow a table's coverage grows it to the
// next multiple of fillStep above the largest magnitude it was asked for.
const fillStep = 256

// coverage is the on-demand fill state of one full lookup table (see the
// package documentation, "On-demand fills"). The table is allocated when
// it is created and filled as its readers reach new operand magnitudes:
// every entry whose operand magnitude is below bound is filled. bound
// only grows, and a reader loads it before reading entries, which orders
// the reader after the fill that published it.
type coverage struct {
	bound atomic.Uint64
	mu    sync.Mutex
	// half is 2^(Width-1), the magnitude of the minimum operand, whose
	// entry has no positive twin. A full table publishes the bound
	// math.MaxUint64, which no operand magnitude reaches.
	half uint64
	// fill writes the entries of magnitudes [lo, hi), both signs; it
	// runs under mu.
	fill func(lo, hi uint64)
}

func newCoverage(width int, fill func(lo, hi uint64)) *coverage {
	return &coverage{half: uint64(1) << (width - 1), fill: fill}
}

// cover makes every entry of operand magnitude mag or less readable.
func (c *coverage) cover(mag uint64) {
	if mag >= c.bound.Load() {
		c.grow(mag)
	}
}

// grow fills from the current bound up to the next fillStep multiple
// above mag. A magnitude of half or more — the minimum operand, an
// operand outside the Width-bit range (its index wraps) or an overflowed
// |math.MinInt64| — fills the whole table.
func (c *coverage) grow(mag uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lo := c.bound.Load()
	if mag < lo {
		return
	}
	if mag >= c.half {
		c.fill(lo, c.half+1)
		c.bound.Store(math.MaxUint64)
		return
	}
	hi := min(mag&^(fillStep-1)+fillStep, c.half)
	c.fill(lo, hi)
	c.bound.Store(hi)
}

// entries returns the number of filled entries.
func (c *coverage) entries() int64 {
	switch b := c.bound.Load(); {
	case b == 0:
		return 0
	case b > c.half:
		return int64(2 * c.half)
	default:
		return int64(2*b - 1)
	}
}

// magnitude returns |x| as an unsigned word, exact for math.MinInt64.
func magnitude(x int64) uint64 {
	s := x >> 63
	return uint64((x ^ s) - s)
}

// maxMagnitude returns the largest |x| over xs (0 when xs is empty). Four
// running maxima break the loop-carried dependency: a stream's 24-sample
// block is scanned once per stage, and one maximum chain scanned it about
// a quarter slower.
func maxMagnitude(xs []int64) uint64 {
	var m0, m1, m2, m3 uint64
	i := 0
	for ; i+3 < len(xs); i += 4 {
		m0 = max(m0, magnitude(xs[i]))
		m1 = max(m1, magnitude(xs[i+1]))
		m2 = max(m2, magnitude(xs[i+2]))
		m3 = max(m3, magnitude(xs[i+3]))
	}
	for ; i < len(xs); i++ {
		m0 = max(m0, magnitude(xs[i]))
	}
	return max(m0, m1, m2, m3)
}
