package kernel

import (
	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// This file holds the moving-window strategies Adder.Slide runs: the
// integrator's chain of its ring slots through one adder, continued over
// a block per call. "Sliding integrator windows" in the package
// documentation derives the per-slot terms the running sums slide.

// windowKind is the moving-window strategy an adder compiles to.
type windowKind uint8

const (
	windowFold   windowKind = iota // re-fold every slot per sample
	windowNative                   // exact: the modular sum of the slots
	windowAMA5                     // slot terms slide, the closing slot corrects
)

// compileWindow picks the moving-window strategy for spec: a running sum
// for the exact adders and AMA5, the per-sample re-fold through the
// adder otherwise (AMA1-AMA4).
func compileWindow(spec arith.Adder) windowKind {
	switch k := effectiveLSBs(spec); {
	case k == 0:
		return windowNative
	case spec.Kind == approx.ApproxAdd5:
		return windowAMA5
	}
	return windowFold
}

// Slide continues one stream's moving window over a block. For each
// xs[i] it overwrites ring[pos], advances pos cyclically and writes to
// dst[i] the ring's slots chained through the adder in slot order —
// slot 0 copied into the accumulator, every later slot added with
// AddSigned — with the output bus slicing of Chain.Run (sign-extend,
// shift right by outShift, slice to outWidth bits).
//
// ring, pos and sum are the stream's state, which the caller owns and
// Slide returns updated: sum is the strategy's running-sum word over the
// ring, 0 for a zeroed ring and otherwise whatever the previous Slide
// over the same ring returned. ring must not be empty, and dst must hold
// at least len(xs) entries; dst may alias xs index for index. The
// strategy is the adder's and holds no stream state, so one adder serves
// any number of streams on any number of goroutines.
//
// The running-sum strategies slice with the shifts of sliceShifts, which
// Slide computes once per call; when the slice does not lie inside the
// accumulator, they write raw accumulators and Slide slices them through
// finishAll.
func (ad *Adder) Slide(dst, xs, ring []int64, pos int, sum uint64, outShift uint, outWidth int) (int, uint64) {
	w, k := ad.spec.Width, uint(effectiveLSBs(ad.spec))
	pl, r, inside := sliceShifts(w, outShift, outWidth)
	switch ad.window {
	case windowNative:
		pos, sum = slideNative(dst, xs, ring, pos, sum, pl, r)
	case windowAMA5:
		pos, sum = slideAMA5(dst, xs, ring, pos, sum, w, k, pl, r)
	default:
		// The re-fold: the chain of every slot through the adder.
		for i, x := range xs {
			ring[pos] = x
			if pos++; pos == len(ring) {
				pos = 0
			}
			acc := ring[0]
			for _, v := range ring[1:] {
				acc = ad.AddSigned(acc, v)
			}
			dst[i] = finish(uint64(acc), w, outShift, outWidth)
		}
		return pos, sum
	}
	if !inside {
		finishAll(dst[:len(xs)], w, outShift, outWidth)
	}
	return pos, sum
}

// slideNative is the exact window: each scalar step masks to the word
// width, but only the low w bits feed the next add, so the chain is the
// plain modular sum of the slots and s carries it.
func slideNative(dst, xs, ring []int64, pos int, s, pl uint64, r uint) (int, uint64) {
	dst = dst[:len(xs)]
	r &= 63 // no change to r, but the loop then shifts with no range check
	for i, x := range xs {
		s += uint64(x) - uint64(ring[pos])
		ring[pos] = x
		if pos++; pos == len(ring) {
			pos = 0
		}
		dst[i] = int64(s*pl) >> r
	}
	return pos, s
}

// slideAMA5 is the AMA5 window (Sum = B): every slot but the last adds
// its upper slice plus the carry its bit k-1 passes up, (ub + 2^(k-1)) >>
// k; the last slot adds only its upper slice and keeps its low k bits. s
// sums the first term over every slot, and the output drops the last
// slot's carry bit.
func slideAMA5(dst, xs, ring []int64, pos int, s uint64, w int, k uint, pl uint64, r uint) (int, uint64) {
	mW, mk := mask(w), mask(int(k))
	half := uint64(1) << (k - 1)
	last := len(ring) - 1
	dst = dst[:len(xs)]
	r &= 63 // no change to r, but the loop then shifts with no range check
	for i, x := range xs {
		s += (uint64(x)&mW+half)>>k - (uint64(ring[pos])&mW+half)>>k
		ring[pos] = x
		if pos++; pos == len(ring) {
			pos = 0
		}
		ub := uint64(ring[last]) & mW
		u := s - ub>>(k-1)&1
		dst[i] = int64((ub&mk|u<<k)*pl) >> r
	}
	return pos, s
}
