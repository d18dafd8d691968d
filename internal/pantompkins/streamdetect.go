package pantompkins

// StreamDetector is the adaptive-threshold peak detector described at
// Detect, and the only implementation of its decisions: Detect and
// PeakDetector run it over whole signals. Pushed a sample (Push) or a
// block (PushBlock) at a time, it advances the Pan-Tompkins thresholds,
// RR statistics and searchback state in O(1) amortised work per sample
// and bounded memory, so an endless stream neither rescans nor
// accumulates its history. Both entry points make the same decisions in
// the same order: a block only batches the window writes and the
// decision passes of its samples.
//
// The detector lags the signal head by a bounded horizon: a candidate
// peak at index i is decided once filtered samples up to i+alignAhead
// exist (the filtered-peak search window is then final) — about 50 ms at
// the pipeline's sampling rate — and the decisions of the first two
// seconds are held until the threshold learning window completes, since
// the running estimates are seeded from those samples. Finish flushes the
// held tail, clamping the search windows to the end of the signal, and
// returns the final Detection: the one Detect returns for the same two
// signals.
//
// Two scans keep the per-sample work small. The local-maximum scan
// starts each pass past the refractory span of the last accepted QRS,
// where no candidate can be decided, and walks to the next local maximum
// with its two neighbours held in registers. The filtered-peak search
// keeps the last window's end, first maximum and magnitude: decision
// windows only move right, so while that maximum is still inside the next
// window only the samples past the kept end are read.
//
// Degenerate inputs match Detect: a non-positive sampling rate or an
// empty stream yields an empty Detection.
type StreamDetector struct {
	fs int
	// Derived windows, in samples.
	refractory int
	tWaveWin   int
	searchWin  int
	alignAhead int
	slopeWin   int
	learn      int

	// The sample window [off, t): sample j of each signal is f[j-off] and
	// in[j-off]. A stream owns f and in. While it learns they are the
	// learning window, learn entries each, allocated by its first push:
	// the decisions held until seeding read all of it. The push of the
	// sample that seeds the thresholds (endLearning) runs those decisions,
	// moves the live suffix into the horizon window, 2·(max(searchWin,
	// slopeWin+1) + alignAhead + 4) entries each (188 at 360 Hz), and
	// drops the learning window. The horizon window holds every lookback a
	// future decision performs plus the decision lookahead, twice over, so
	// each compaction (makeRoom) frees at least half of it for the next
	// samples. PeakDetector points f and in at the caller's whole signals
	// for the duration of one call.
	f, in []int64
	off   int

	t      int  // samples pushed so far
	cursor int  // next candidate index to examine
	seeded bool // threshold learning completed
	done   bool // Finish called

	// Learning-phase accumulators over the first learn samples.
	maxI, sumI float64
	maxF, sumF float64

	// Running detector state.
	spki, npki float64
	spkf, npkf float64
	lastQRS    int
	lastSlope  float64
	rrMean     float64
	rr         [8]int // ring of the last RR intervals
	rrLen      int
	rrPos      int
	// best is the searchback candidate when hasBest: the largest-value
	// aligned candidate since the last QRS, the earliest winning ties.
	// Searchback accepts the first maximum among the aligned candidates
	// above one threshold they all share, and a misaligned candidate never
	// qualifies, so no other candidate could win.
	best    candidate
	hasBest bool

	// The last peakNear window ended at pkHi, and its first largest
	// |filtered| sample is at pkPos, of magnitude pkMax (pkPos < 0: no
	// window since Reset).
	pkHi, pkPos int
	pkMax       int64

	det Detection
}

// candidate is a QRS candidate with its decision-time context. slope is
// negative until computed: only the T-wave test and acceptance read it.
type candidate struct {
	idx   int
	val   int64
	fpos  int
	fval  float64
	slope float64
}

// NewStreamDetector builds an incremental detector for signals sampled at
// fs Hz. A non-positive fs yields a detector that ignores samples and
// reports an empty Detection, like Detect.
func NewStreamDetector(fs int) *StreamDetector {
	d := &StreamDetector{fs: fs}
	d.Reset()
	return d
}

// Reset returns the detector to its initial state so a new record or
// stream can start. The detection buffers are kept, and so is a learning
// window; a detector that ran past its learning window drops the horizon
// window instead, and its first push regrows a learning window for the
// 2 s it relearns.
func (d *StreamDetector) Reset() {
	d.det.Peaks = d.det.Peaks[:0]
	d.det.MWIPeaks = d.det.MWIPeaks[:0]
	d.det.Events = d.det.Events[:0]
	d.done = false
	if d.t >= d.learn {
		// Past learning the window is the horizon window.
		d.f, d.in = nil, nil
	}
	fs := d.fs
	if fs <= 0 {
		return
	}
	d.refractory = int(refractoryS * float64(fs))
	d.tWaveWin = int(tWaveWindowS * float64(fs))
	d.searchWin = int(searchWindowS * float64(fs))
	d.alignAhead = int(alignAheadS * float64(fs))
	d.slopeWin = int(0.075 * float64(fs))
	d.learn = int(learnS * float64(fs))
	d.off, d.t, d.cursor = 0, 0, 1
	d.seeded = false
	d.maxI, d.sumI, d.maxF, d.sumF = 0, 0, 0, 0
	d.lastQRS = -d.refractory - 1
	d.lastSlope = 0
	d.rrMean = float64(fs) * 0.8 // prior: 75 bpm until measured
	d.rrLen, d.rrPos = 0, 0
	d.hasBest = false
	d.pkHi, d.pkPos, d.pkMax = -1, -1, -1
}

// Push feeds one sample of the filtered and integrated signals (the pair
// Detect consumes) and advances every decision whose lookahead is
// complete. It must not be called after Finish without an intervening
// Reset.
func (d *StreamDetector) Push(filtered, integrated int64) {
	if d.fs <= 0 {
		return
	}
	if d.done {
		panic("pantompkins: StreamDetector.Push after Finish (Reset first)")
	}
	if d.t-d.off == len(d.f) {
		d.makeRoom()
	}
	d.f[d.t-d.off] = filtered
	d.in[d.t-d.off] = integrated
	d.t++
	if !d.seeded {
		d.learnSample(filtered, integrated)
		if d.t == d.learn {
			d.endLearning()
		}
		return
	}
	d.advance(false)
}

// PushBlock feeds a block of both detector inputs (integrated as long as
// filtered) and leaves the detector exactly as len(filtered) calls of
// Push would: the same decisions in the same order, the same window. It
// copies each fill of the sample window in one copy and runs the
// decisions once per fill instead of once per sample; candidate i's
// search window ends at i+alignAhead however often they run, so no
// decision changes. A learning stream fills its learning window the same
// way, folding each sample into the threshold seeds, and seeds at the
// sample where Push seeds. An empty block is a no-op.
func (d *StreamDetector) PushBlock(filtered, integrated []int64) {
	if d.fs <= 0 || len(filtered) == 0 {
		return
	}
	if d.done {
		panic("pantompkins: StreamDetector.PushBlock after Finish (Reset first)")
	}
	integrated = integrated[:len(filtered)]
	for len(filtered) > 0 {
		if d.t-d.off == len(d.f) {
			d.makeRoom()
		}
		w := d.t - d.off
		m := copy(d.f[w:], filtered)
		copy(d.in[w:w+m], integrated)
		d.t += m
		if d.seeded {
			d.advance(false)
		} else {
			for j := range m {
				d.learnSample(filtered[j], integrated[j])
			}
			if d.t == d.learn {
				d.endLearning()
			}
		}
		filtered, integrated = filtered[m:], integrated[m:]
	}
}

// endLearning seeds the thresholds from the learning window's samples,
// runs the decisions held for it and moves the live suffix into a new
// horizon window: the learning window dies with the held decisions it
// served.
func (d *StreamDetector) endLearning() {
	d.seed(d.learn)
	d.advance(false)
	h := 2 * (max(d.searchWin, d.slopeWin+1) + d.alignAhead + 4)
	d.compact(make([]int64, h), make([]int64, h))
}

// makeRoom frees window space for the next sample. A learning stream's
// first push allocates the learning window, which seeding replaces
// before it fills; past learning, makeRoom compacts inside the horizon
// window.
func (d *StreamDetector) makeRoom() {
	if !d.seeded {
		d.f, d.in = make([]int64, d.learn), make([]int64, d.learn)
		return
	}
	d.compact(d.f, d.in)
}

// compact moves the window's live suffix — from the earliest sample a
// future candidate reads, cursor − max(searchWin, slopeWin+1), up to t —
// to the start of f and in, which become the window (they may be the
// current one). The searchback candidate's slope is filled in first,
// since it may read samples the move drops.
func (d *StreamDetector) compact(f, in []int64) {
	if d.hasBest && d.best.slope < 0 {
		d.best.slope = d.slopeBefore(d.best.idx)
	}
	keep := d.cursor - max(d.searchWin, d.slopeWin+1)
	copy(f, d.f[keep-d.off:d.t-d.off])
	copy(in, d.in[keep-d.off:d.t-d.off])
	d.f, d.in, d.off = f, in, keep
}

// Finish flushes every decision held for lookahead — clamping the search
// windows to the end of the signal — and returns the final Detection. The
// result aliases the detector's buffers and is valid until the next
// Reset. Finish is idempotent.
func (d *StreamDetector) Finish() *Detection {
	if d.fs <= 0 || d.done {
		d.done = true
		return &d.det
	}
	if d.t > 0 && !d.seeded {
		// Stream shorter than the learning window: learn from all of it.
		d.seed(d.t)
	}
	if d.seeded {
		d.advance(true)
	}
	d.done = true
	return &d.det
}

// Samples returns the number of samples pushed since the last Reset (none
// at a non-positive sampling rate, where pushes are ignored).
func (d *StreamDetector) Samples() int { return d.t }

// Detection returns the decisions made so far (beats whose lookahead is
// complete). The result aliases the detector's buffers.
func (d *StreamDetector) Detection() *Detection { return &d.det }

// Discard drops the first events decision-trace entries and the first
// peaks accepted beats (Peaks and MWIPeaks advance together) from the
// Detection, compacting in place. The detector only ever appends to
// these slices — no decision reads emitted history back — so a
// long-lived consumer that has copied out a prefix can trim it to keep
// the detector's memory bounded over unbounded streams. Counts must not
// exceed the current lengths.
func (d *StreamDetector) Discard(events, peaks int) {
	if events > 0 {
		d.det.Events = d.det.Events[:copy(d.det.Events, d.det.Events[events:])]
	}
	if peaks > 0 {
		d.det.Peaks = d.det.Peaks[:copy(d.det.Peaks, d.det.Peaks[peaks:])]
		d.det.MWIPeaks = d.det.MWIPeaks[:copy(d.det.MWIPeaks, d.det.MWIPeaks[peaks:])]
	}
}

// learnSample adds one learning-window sample to the threshold seeds.
func (d *StreamDetector) learnSample(filtered, integrated int64) {
	if v := float64(integrated); v > d.maxI {
		d.maxI = v
	}
	d.sumI += float64(integrated)
	if v := absf(filtered); v > d.maxF {
		d.maxF = v
	}
	d.sumF += absf(filtered)
}

// seed computes the initial signal/noise estimates from the learning
// accumulators over the first learn samples.
func (d *StreamDetector) seed(learn int) {
	d.spki = 0.4 * d.maxI
	d.npki = 0.5 * d.sumI / float64(learn)
	d.spkf = 0.4 * d.maxF
	d.npkf = 0.5 * d.sumF / float64(learn)
	d.seeded = true
}

// advance examines candidates while their decision context is complete:
// index i needs integrated[i+1] (the local-maximum test) and filtered up
// to i+alignAhead (the peak search window); final mode clamps the search
// window to the end of the signal instead. A candidate within the
// refractory span of the last QRS is never decided, so each scan starts
// past it; a decision may accept a QRS and move that span.
func (d *StreamDetector) advance(final bool) {
	n := d.t
	last := n - 2
	if !final && last > n-1-d.alignAhead {
		last = n - 1 - d.alignAhead
	}
	for i := d.cursor; ; i++ {
		if i = d.nextPeak(max(i, d.lastQRS+d.refractory+1), last); i > last {
			break
		}
		d.decide(i, d.in[i-d.off], min(i+d.alignAhead, n-1))
	}
	d.cursor = max(d.cursor, last+1)
}

// nextPeak returns the first local maximum of the integrated signal in
// [i, last], the first j with integrated[j-1] < integrated[j] >=
// integrated[j+1], or last+1 when there is none.
func (d *StreamDetector) nextPeak(i, last int) int {
	if i > last {
		return last + 1
	}
	w := d.in[i-1-d.off : last+2-d.off]
	prev, cur := w[0], w[1]
	for j, next := range w[2:] {
		if prev < cur && cur >= next {
			return i + j
		}
		prev, cur = cur, next
	}
	return last + 1
}

// decide classifies the local maximum v = integrated[i] outside the
// refractory period, whose filtered-peak search window ends at hi.
func (d *StreamDetector) decide(i int, v int64, hi int) {
	// Locate the matching filtered peak near the MWI peak.
	fpos, fval := d.peakNear(i-d.searchWin, hi)
	c := candidate{idx: i, val: v, fpos: fpos, fval: fval, slope: -1}

	// T-wave discrimination inside 360 ms of the previous QRS.
	if d.lastQRS >= 0 && i-d.lastQRS <= d.tWaveWin {
		c.slope = d.slopeBefore(i)
		if c.slope < 0.5*d.lastSlope {
			d.noise(c, EventTWave)
			return
		}
	}

	// Alignment cross-check (Fig 13): the filtered peak must precede the
	// MWI peak within the search window; a peak that trails it or sits at
	// the window edge is a misclassified artefact.
	aligned := fpos <= i && i-fpos < d.searchWin
	thrI := d.npki + 0.25*(d.spki-d.npki)
	thrF := d.npkf + 0.25*(d.spkf-d.npkf)
	if float64(v) > thrI && fval > thrF {
		if aligned {
			d.accept(c, 0.125, EventAccepted)
		} else {
			// The beat is omitted as a classification error.
			d.event(EventMisaligned, c)
		}
		return
	}

	d.noise(c, EventNoise)
	if aligned && (!d.hasBest || v > d.best.val) {
		d.best, d.hasBest = c, true
	}

	// Searchback for a missed beat. The lowered threshold reads the noise
	// estimate just updated.
	thrI = d.npki + 0.25*(d.spki-d.npki)
	if d.hasBest && d.lastQRS >= 0 && float64(i-d.lastQRS) > searchbackRR*d.rrMean &&
		float64(d.best.val) > 0.5*thrI {
		d.accept(d.best, 0.25, EventSearchback)
	}
}

// noise folds a rejected candidate into the noise estimates and records
// the decision.
func (d *StreamDetector) noise(c candidate, kind EventKind) {
	d.npki = 0.125*float64(c.val) + 0.875*d.npki
	d.npkf = 0.125*c.fval + 0.875*d.npkf
	d.event(kind, c)
}

// accept records one detected QRS.
func (d *StreamDetector) accept(c candidate, weight float64, kind EventKind) {
	d.spki = weight*float64(c.val) + (1-weight)*d.spki
	d.spkf = weight*c.fval + (1-weight)*d.spkf
	if d.lastQRS >= 0 {
		d.rr[d.rrPos] = c.idx - d.lastQRS
		d.rrPos = (d.rrPos + 1) % len(d.rr)
		if d.rrLen < len(d.rr) {
			d.rrLen++
		}
		total := 0
		for _, v := range d.rr[:d.rrLen] {
			total += v
		}
		d.rrMean = float64(total) / float64(d.rrLen)
	}
	d.lastQRS = c.idx
	if c.slope < 0 {
		c.slope = d.slopeBefore(c.idx)
	}
	d.lastSlope = c.slope
	d.det.Peaks = append(d.det.Peaks, max(c.fpos-filterDelay, 0))
	d.det.MWIPeaks = append(d.det.MWIPeaks, c.idx)
	d.event(kind, c)
	d.hasBest = false
}

// event appends one decision to the trace.
func (d *StreamDetector) event(kind EventKind, c candidate) {
	d.det.Events = append(d.det.Events, Event{Kind: kind, Index: c.idx, Filtered: c.fpos, Value: c.val})
}

// peakNear returns the position and absolute value of the largest
// filtered sample in [lo, hi], lo clamped to the signal start; the first
// maximum wins ties. It compares integer magnitudes and converts only
// the winner: the pipeline's filtered samples are dsp.SampleWidth (16)
// bits wide, far below 2^53, where every magnitude converts to float64
// exactly, so the argmax and the tie rule are those of a float64
// comparison.
//
// Successive windows of one run never move left (both ends grow with the
// candidate index, and the signal end with it). While the last window's
// first maximum is at or past lo, it is also the first maximum of
// [lo, pkHi], so only the samples past pkHi are read, and a strict > keeps
// the earlier of two equal magnitudes.
func (d *StreamDetector) peakNear(lo, hi int) (int, float64) {
	lo = max(lo, 0)
	from, best, bestV := lo, lo, int64(-1)
	if d.pkPos >= lo {
		from, best, bestV = d.pkHi+1, d.pkPos, d.pkMax
	}
	for j, x := range d.f[from-d.off : hi+1-d.off] {
		if x < 0 {
			x = -x
		}
		if x > bestV {
			best, bestV = from+j, x
		}
	}
	d.pkHi, d.pkPos, d.pkMax = hi, best, bestV
	return best, float64(bestV)
}

// slopeBefore returns the maximum rising slope of the integrated signal
// in the 75 ms window before idx (the Pan-Tompkins T-wave discriminator),
// zero when it never rises. It takes the integer maximum and converts it
// once: conversion to float64 is monotone, so that is the maximum of the
// converted differences.
func (d *StreamDetector) slopeBefore(idx int) float64 {
	lo := max(idx-d.slopeWin, 1)
	w := d.in[lo-1-d.off : idx+1-d.off]
	var maxS int64
	for j := 1; j < len(w); j++ {
		maxS = max(maxS, w[j]-w[j-1])
	}
	return float64(maxS)
}
