package metrics

import (
	"fmt"
	"math"
)

// The float definitions of PSNR and SSIM, which SignalRef.Quality must
// reproduce bit for bit over ToFloat copies of its integer signals.

// PSNR returns the peak signal-to-noise ratio of sig against ref in dB,
// with the peak taken as the maximum absolute value of the reference
// (the convention used for bipolar bio-signals). It returns +Inf for
// identical signals.
func PSNR(ref, sig []float64) (float64, error) {
	if len(ref) != len(sig) {
		return 0, fmt.Errorf("metrics: PSNR length mismatch %d vs %d", len(ref), len(sig))
	}
	if len(ref) == 0 {
		return 0, fmt.Errorf("metrics: PSNR of empty signals")
	}
	var peak, mse float64
	for i := range ref {
		if a := math.Abs(ref[i]); a > peak {
			peak = a
		}
		d := ref[i] - sig[i]
		mse += d * d
	}
	mse /= float64(len(ref))
	if mse == 0 {
		return math.Inf(1), nil
	}
	if peak == 0 {
		return 0, fmt.Errorf("metrics: PSNR reference is identically zero")
	}
	return 10 * math.Log10(peak*peak/mse), nil
}

// SSIM returns the mean structural similarity index between ref and sig
// over sliding windows (1-D adaptation of the standard image metric; the
// paper uses SSIM to grade the pre-processed signal). The dynamic range L
// is taken from the reference; the standard constants C1=(0.01L)^2 and
// C2=(0.03L)^2 stabilise the ratio.
func SSIM(ref, sig []float64, window int) (float64, error) {
	if len(ref) != len(sig) {
		return 0, fmt.Errorf("metrics: SSIM length mismatch %d vs %d", len(ref), len(sig))
	}
	if window < 2 {
		return 0, fmt.Errorf("metrics: SSIM window %d too small", window)
	}
	if len(ref) < window {
		return 0, fmt.Errorf("metrics: SSIM input shorter than window (%d < %d)", len(ref), window)
	}
	lo, hi := ref[0], ref[0]
	for _, v := range ref {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	l := hi - lo
	if l == 0 {
		return 0, fmt.Errorf("metrics: SSIM reference has zero dynamic range")
	}
	c1 := (0.01 * l) * (0.01 * l)
	c2 := (0.03 * l) * (0.03 * l)

	var total float64
	var count int
	for start := 0; start+window <= len(ref); start += window / 2 {
		var mx, my float64
		for i := start; i < start+window; i++ {
			mx += ref[i]
			my += sig[i]
		}
		n := float64(window)
		mx /= n
		my /= n
		var vx, vy, cov float64
		for i := start; i < start+window; i++ {
			dx, dy := ref[i]-mx, sig[i]-my
			vx += dx * dx
			vy += dy * dy
			cov += dx * dy
		}
		vx /= n - 1
		vy /= n - 1
		cov /= n - 1
		s := ((2*mx*my + c1) * (2*cov + c2)) /
			((mx*mx + my*my + c1) * (vx + vy + c2))
		total += s
		count++
	}
	return total / float64(count), nil
}

// ToFloat converts an integer signal to float64 for the floating-point
// metrics.
func ToFloat[T int16 | int32 | int64 | int](xs []T) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
