// Package metrics implements the three quality measures XBioSiP's
// two-stage evaluation uses (paper §4): PSNR and SSIM for the intermediate
// pre-processed signal, both graded in one pass over a candidate by
// SignalRef.Quality, and peak-detection accuracy (MatchPeaks: detections
// matched to reference peaks within a tolerance window) for the final
// application output. The float definitions of PSNR and SSIM live in the
// package tests, as the oracle Quality is compared with bit for bit.
package metrics

import (
	"fmt"
	"math"
)

// SSIMWindow is the default sliding-window length for the 1-D SSIM,
// roughly a third of a second at the paper's 200 Hz sampling rate.
const SSIMWindow = 64

// MatchResult summarises reference-vs-detected peak matching.
type MatchResult struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// Sensitivity returns TP / (TP + FN), the fraction of reference peaks
// found — the paper's "peak detection accuracy".
func (m MatchResult) Sensitivity() float64 {
	if m.TruePositives+m.FalseNegatives == 0 {
		return 1
	}
	return float64(m.TruePositives) / float64(m.TruePositives+m.FalseNegatives)
}

// PPV returns TP / (TP + FP), positive predictive value.
func (m MatchResult) PPV() float64 {
	if m.TruePositives+m.FalsePositives == 0 {
		return 1
	}
	return float64(m.TruePositives) / float64(m.TruePositives+m.FalsePositives)
}

// F1 returns the harmonic mean of sensitivity and PPV.
func (m MatchResult) F1() float64 {
	se, ppv := m.Sensitivity(), m.PPV()
	if se+ppv == 0 {
		return 0
	}
	return 2 * se * ppv / (se + ppv)
}

// MatchPeaks greedily matches detected peak indices to reference indices
// within +-tol samples. Both slices must be sorted ascending. Each
// reference peak matches at most one detection and vice versa.
func MatchPeaks(ref, det []int, tol int) (MatchResult, error) {
	if tol < 0 {
		return MatchResult{}, fmt.Errorf("metrics: negative tolerance %d", tol)
	}
	for i := 1; i < len(ref); i++ {
		if ref[i] < ref[i-1] {
			return MatchResult{}, fmt.Errorf("metrics: reference peaks not sorted at %d", i)
		}
	}
	for i := 1; i < len(det); i++ {
		if det[i] < det[i-1] {
			return MatchResult{}, fmt.Errorf("metrics: detected peaks not sorted at %d", i)
		}
	}
	var res MatchResult
	i, j := 0, 0
	for i < len(ref) && j < len(det) {
		d := det[j] - ref[i]
		switch {
		case d < -tol:
			res.FalsePositives++
			j++
		case d > tol:
			res.FalseNegatives++
			i++
		default:
			res.TruePositives++
			i++
			j++
		}
	}
	res.FalseNegatives += len(ref) - i
	res.FalsePositives += len(det) - j
	return res, nil
}

// PSNRClamp is the PSNR (dB) assigned to bit-identical signals when a
// finite value is needed for aggregation or display: +Inf clamps here.
const PSNRClamp = 120

// ClampPSNR maps the +Inf PSNR of identical signals to PSNRClamp and
// leaves every finite value untouched. Both the evaluation loop (package
// core) and the experiment renderings clamp through this one function so
// the constant cannot drift.
func ClampPSNR(psnr float64) float64 {
	if math.IsInf(psnr, 1) {
		return PSNRClamp
	}
	return psnr
}

// refWindow is one precomputed SSIM window statistic of the reference:
// its mean and variance, and its sample sum for the integer pass.
type refWindow struct {
	mx, vx float64
	sx     int64
}

// exactBits bounds the samples the integer pass grades: every sample of
// both signals must lie in [-2^exactBits, 2^exactBits).
const exactBits = 16

// SignalRef is a reference signal prepared for repeated single-pass
// quality evaluation: the peak, dynamic range and per-window SSIM
// statistics are computed once, so grading one candidate signal against
// it traverses only the candidate. Quality results are bit-identical to
// the float definitions of PSNR and SSIM over float64 copies of the
// signals (the package tests' PSNR and SSIM).
//
// Quality grades in one integer pass when every sample of both signals
// lies in [-2^16, 2^16), the window is a power of two no longer than 64,
// the signals are shorter than 2^29 samples and the summed squared error
// is at most 2^53. For each half-window it sums Σy, Σy² and Σxy in int64,
// and each window of w samples takes its moments from its two halves:
// my = Sy/w, vy = (w²Σy² − w·Sy²)/w² and cov = (w²Σxy − w·Sx·Sy)/w², the
// last two then divided by w−1 as SSIM divides them. PSNR takes
// mse = (Σx² − 2Σxy + Σy²)/len. These are the values the float loops of
// PSNR and SSIM compute, bit for bit, because under those bounds every
// value those loops form is exact. A window's sums are integers of at
// most 2^22 in magnitude, so its means are exact. Each deviation
// x − Sx/w = (w·x − Sx)/w has an integer numerator of at most 2^23, so a
// product of two deviations is a multiple of 1/w² with a numerator of at
// most 2^46 in magnitude, and every partial window sum is a multiple of
// 1/w² below 2^53 (at most 2^52 in those units). PSNR's squared
// differences are integers, and their running sum never exceeds its
// final value, at most 2^53. An exact value rounds to itself, so the
// order of the float loops' additions does not matter, and neither does
// fusing a product into its sum (the FMA arm64 may make of
// `vy += dy * dy`). Quality checks the sample bound with a branch-free OR
// of biased samples and the error bound after the pass; any input outside
// the bounds is graded by the float loops.
type SignalRef struct {
	ref    []int64
	window int
	peak   float64 // max |ref|, the PSNR peak
	c1, c2 float64 // SSIM stabilisation constants from the dynamic range
	wins   []refWindow
	sxx    int64 // Σx² of the reference, for the integer pass
	exact  bool  // the reference, its length and the window admit the integer pass
}

// NewSignalRef prepares ref for repeated evaluation; the slice is
// retained. The validation matches the float definitions of PSNR and
// SSIM: non-empty, at least one
// window long, and non-degenerate (nonzero dynamic range implies a
// nonzero peak for any signal, so the PSNR zero-peak error cannot occur).
func NewSignalRef(ref []int64, window int) (*SignalRef, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("metrics: PSNR of empty signals")
	}
	if window < 2 {
		return nil, fmt.Errorf("metrics: SSIM window %d too small", window)
	}
	if len(ref) < window {
		return nil, fmt.Errorf("metrics: SSIM input shorter than window (%d < %d)", len(ref), window)
	}
	r := &SignalRef{ref: ref, window: window}
	lo, hi := float64(ref[0]), float64(ref[0])
	var bias uint64
	for _, v := range ref {
		f := float64(v)
		if a := math.Abs(f); a > r.peak {
			r.peak = a
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
		r.sxx += v * v
		bias |= uint64(v + 1<<exactBits)
	}
	l := hi - lo
	if l == 0 {
		return nil, fmt.Errorf("metrics: SSIM reference has zero dynamic range")
	}
	r.c1 = (0.01 * l) * (0.01 * l)
	r.c2 = (0.03 * l) * (0.03 * l)
	for start := 0; start+window <= len(ref); start += window / 2 {
		var mx float64
		var sx int64
		for i := start; i < start+window; i++ {
			mx += float64(ref[i])
			sx += ref[i]
		}
		n := float64(window)
		mx /= n
		var vx float64
		for i := start; i < start+window; i++ {
			dx := float64(ref[i]) - mx
			vx += dx * dx
		}
		vx /= n - 1
		r.wins = append(r.wins, refWindow{mx: mx, vx: vx, sx: sx})
	}
	r.exact = bias>>(exactBits+1) == 0 && window <= 64 && window&(window-1) == 0 && len(ref) < 1<<29
	return r, nil
}

// Quality grades out against the prepared reference and returns the raw
// PSNR (+Inf for identical signals; clamp with ClampPSNR when
// aggregating) and the mean SSIM, allocation-free. It is safe for
// concurrent use.
func (r *SignalRef) Quality(out []int64) (psnr, ssim float64, err error) {
	if len(out) != len(r.ref) {
		return 0, 0, fmt.Errorf("metrics: PSNR length mismatch %d vs %d", len(r.ref), len(out))
	}
	mse, ssim, ok := r.intMoments(out)
	if !ok {
		mse, ssim = r.floatMoments(out)
	}
	switch {
	case mse == 0:
		psnr = math.Inf(1)
	case r.peak == 0:
		return 0, 0, fmt.Errorf("metrics: PSNR reference is identically zero")
	default:
		psnr = 10 * math.Log10(r.peak*r.peak/mse)
	}
	return psnr, ssim, nil
}

// intMoments grades out in the integer pass the SignalRef doc describes
// and returns PSNR's mean squared error and the mean SSIM. ok is false,
// and the results meaningless, when the inputs are outside its bounds.
func (r *SignalRef) intMoments(out []int64) (mse, ssim float64, ok bool) {
	if !r.exact {
		return 0, 0, false
	}
	ref, h := r.ref, r.window/2
	w, n := int64(r.window), float64(r.window)
	// w²(w−1) is exact, and the w² division is exact, so one division by
	// it rounds as SSIM's two do.
	div := n * n * (n - 1)
	sy0, syy0, sxy0, bias := halfMoments(ref[:h], out[:h])
	syy, sxy := syy0, sxy0
	var total float64
	for wi, rw := range r.wins {
		at := (wi + 1) * h
		sy1, syy1, sxy1, b := halfMoments(ref[at:at+h], out[at:at+h])
		bias |= b
		syy += syy1
		sxy += sxy1
		sy := sy0 + sy1
		my := float64(sy) / n
		vy := float64(w*w*(syy0+syy1)-w*sy*sy) / div
		cov := float64(w*w*(sxy0+sxy1)-w*rw.sx*sy) / div
		total += ((2*rw.mx*my + r.c1) * (2*cov + r.c2)) /
			((rw.mx*rw.mx + my*my + r.c1) * (rw.vx + vy + r.c2))
		sy0, syy0, sxy0 = sy1, syy1, sxy1
	}
	at := (len(r.wins) + 1) * h
	_, tyy, txy, b := halfMoments(ref[at:], out[at:])
	bias |= b
	// Σd² < 2^63 for samples in bounds and fewer than 2^29 of them, so the
	// wrapping int64 sums give it exactly.
	d2 := r.sxx - 2*(sxy+txy) + syy + tyy
	if bias>>(exactBits+1) != 0 || d2 > 1<<53 {
		return 0, 0, false
	}
	return float64(d2) / float64(len(ref)), total / float64(len(r.wins)), true
}

// halfMoments returns Σy, Σy² and Σxy over y and the samples of x beside
// it, and the OR of y's samples biased by 2^exactBits, which has no bit
// from exactBits+1 up exactly when every sample lies in
// [-2^exactBits, 2^exactBits). It stays out of line: inlined into
// intMoments' window loop, its accumulators spill to the stack.
//
//go:noinline
func halfMoments(x, y []int64) (sy, syy, sxy int64, bias uint64) {
	x = x[:len(y)]
	for i, v := range y {
		sy += v
		syy += v * v
		sxy += x[i] * v
		bias |= uint64(v + 1<<exactBits)
	}
	return sy, syy, sxy, bias
}

// floatMoments grades out with the float loops of PSNR and SSIM over the
// prepared reference statistics and returns PSNR's mean squared error
// and the mean SSIM.
func (r *SignalRef) floatMoments(out []int64) (mse, ssim float64) {
	ref := r.ref
	for i := range ref {
		d := float64(ref[i]) - float64(out[i])
		mse += d * d
	}
	mse /= float64(len(ref))

	window := r.window
	n := float64(window)
	var total float64
	for wi, rw := range r.wins {
		start := wi * (window / 2)
		var my float64
		for i := start; i < start+window; i++ {
			my += float64(out[i])
		}
		my /= n
		var vy, cov float64
		for i := start; i < start+window; i++ {
			dx := float64(ref[i]) - rw.mx
			dy := float64(out[i]) - my
			vy += dy * dy
			cov += dx * dy
		}
		vy /= n - 1
		cov /= n - 1
		total += ((2*rw.mx*my + r.c1) * (2*cov + r.c2)) /
			((rw.mx*rw.mx + my*my + r.c1) * (rw.vx + vy + r.c2))
	}
	return mse, total / float64(len(r.wins))
}
