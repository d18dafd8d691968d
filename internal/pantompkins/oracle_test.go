package pantompkins

// oracleDetect runs the frozen whole-record oracle and returns a
// Detection that owns its slices.
func oracleDetect(filtered, integrated []int64, fs int) Detection {
	var od oracleDetector
	return *od.Detect(filtered, integrated, fs)
}

// detCand is a pending searchback candidate.
type detCand struct {
	idx  int
	val  int64
	fpos int
	fval float64
}

// oracleDetector is the whole-record detection loop as it stood before
// StreamDetector became the only implementation of the decisions, kept
// frozen as the oracle every detector test compares against. Its buffers
// are reused across calls and the returned Detection aliases them.
type oracleDetector struct {
	det     Detection
	pending []detCand
	rr      [8]int // ring of the last RR intervals
	rrLen   int
	rrPos   int
}

// Detect grades one record.
func (pd *oracleDetector) Detect(filtered, integrated []int64, fs int) *Detection {
	det := &pd.det
	det.Peaks = det.Peaks[:0]
	det.MWIPeaks = det.MWIPeaks[:0]
	det.Events = det.Events[:0]
	pd.rrLen, pd.rrPos = 0, 0
	n := len(integrated)
	if n == 0 || len(filtered) != n || fs <= 0 {
		return det
	}
	refractory := int(refractoryS * float64(fs))
	tWaveWin := int(tWaveWindowS * float64(fs))
	searchWin := int(searchWindowS * float64(fs))
	alignAhead := int(alignAheadS * float64(fs))
	learn := int(learnS * float64(fs))
	if learn > n {
		learn = n
	}

	// Learning phase: seed the four running estimates.
	var maxI, sumI float64
	for i := 0; i < learn; i++ {
		v := float64(integrated[i])
		if v > maxI {
			maxI = v
		}
		sumI += v
	}
	var maxF, sumF float64
	for i := 0; i < learn; i++ {
		v := absf(filtered[i])
		if v > maxF {
			maxF = v
		}
		sumF += v
	}
	spki := 0.4 * maxI
	npki := 0.5 * sumI / float64(learn)
	spkf := 0.4 * maxF
	npkf := 0.5 * sumF / float64(learn)

	thrI := func() float64 { return npki + 0.25*(spki-npki) }
	thrF := func() float64 { return npkf + 0.25*(spkf-npkf) }

	lastQRS := -refractory - 1 // MWI index of the last accepted QRS
	lastSlope := 0.0
	rrMean := float64(fs) * 0.8 // prior: 75 bpm until measured

	// Pending candidates for searchback (rejected since the last QRS).
	pending := pd.pending[:0]

	accept := func(c detCand, weight float64, kind EventKind) {
		spki = weight*float64(c.val) + (1-weight)*spki
		spkf = weight*c.fval + (1-weight)*spkf
		if lastQRS >= 0 {
			// Ring of the last 8 RR intervals (same window as the sliced
			// append of the original formulation, without reallocation).
			pd.rr[pd.rrPos] = c.idx - lastQRS
			pd.rrPos = (pd.rrPos + 1) % len(pd.rr)
			if pd.rrLen < len(pd.rr) {
				pd.rrLen++
			}
			total := 0
			for _, v := range pd.rr[:pd.rrLen] {
				total += v
			}
			rrMean = float64(total) / float64(pd.rrLen)
		}
		lastQRS = c.idx
		lastSlope = slopeBefore(integrated, c.idx, fs)
		raw := c.fpos - filterDelay
		if raw < 0 {
			raw = 0
		}
		det.Peaks = append(det.Peaks, raw)
		det.MWIPeaks = append(det.MWIPeaks, c.idx)
		det.Events = append(det.Events, Event{Kind: kind, Index: c.idx, Filtered: c.fpos, Value: c.val})
		pending = pending[:0]
	}

	for i := 1; i < n-1; i++ {
		if !(integrated[i-1] < integrated[i] && integrated[i] >= integrated[i+1]) {
			continue
		}
		v := integrated[i]
		if i-lastQRS <= refractory {
			continue
		}

		// Locate the matching filtered peak near the MWI peak.
		fpos, fval := peakNear(filtered, i-searchWin, i+alignAhead)

		// T-wave discrimination inside 360 ms of the previous QRS.
		if lastQRS >= 0 && i-lastQRS <= tWaveWin {
			if s := slopeBefore(integrated, i, fs); s < 0.5*lastSlope {
				npki = 0.125*float64(v) + 0.875*npki
				npkf = 0.125*fval + 0.875*npkf
				det.Events = append(det.Events, Event{Kind: EventTWave, Index: i, Filtered: fpos, Value: v})
				continue
			}
		}

		if float64(v) > thrI() && fval > thrF() {
			// Alignment cross-check (Fig 13): the filtered peak must
			// precede the MWI peak within the search window; a peak that
			// trails it or sits at the window edge is a misclassified
			// artefact and the beat is omitted.
			if fpos > i || i-fpos >= searchWin {
				det.Events = append(det.Events, Event{Kind: EventMisaligned, Index: i, Filtered: fpos, Value: v})
				pending = append(pending, detCand{i, v, fpos, fval})
				continue
			}
			accept(detCand{i, v, fpos, fval}, 0.125, EventAccepted)
			continue
		}

		// Noise.
		npki = 0.125*float64(v) + 0.875*npki
		npkf = 0.125*fval + 0.875*npkf
		det.Events = append(det.Events, Event{Kind: EventNoise, Index: i, Filtered: fpos, Value: v})
		pending = append(pending, detCand{i, v, fpos, fval})

		// Searchback for a missed beat.
		if lastQRS >= 0 && float64(i-lastQRS) > searchbackRR*rrMean {
			bestIdx := -1
			for pi, p := range pending {
				if float64(p.val) > 0.5*thrI() && p.fpos <= p.idx && p.idx-p.fpos < searchWin {
					if bestIdx < 0 || p.val > pending[bestIdx].val {
						bestIdx = pi
					}
				}
			}
			if bestIdx >= 0 {
				accept(pending[bestIdx], 0.25, EventSearchback)
			}
		}
	}
	pd.pending = pending[:0] // keep the grown capacity for the next record
	return det
}

// peakNear returns the position and absolute value of the largest
// filtered-signal sample in [lo, hi].
func peakNear(filtered []int64, lo, hi int) (int, float64) {
	if lo < 0 {
		lo = 0
	}
	if hi >= len(filtered) {
		hi = len(filtered) - 1
	}
	best, bestV := lo, -1.0
	for j := lo; j <= hi; j++ {
		if v := absf(filtered[j]); v > bestV {
			best, bestV = j, v
		}
	}
	return best, bestV
}

// slopeBefore returns the maximum rising slope of the integrated signal in
// the 75 ms window before idx (the Pan-Tompkins T-wave discriminator).
func slopeBefore(integrated []int64, idx, fs int) float64 {
	win := int(0.075 * float64(fs))
	lo := idx - win
	if lo < 1 {
		lo = 1
	}
	maxS := 0.0
	for j := lo; j <= idx && j < len(integrated); j++ {
		if s := float64(integrated[j] - integrated[j-1]); s > maxS {
			maxS = s
		}
	}
	return maxS
}
