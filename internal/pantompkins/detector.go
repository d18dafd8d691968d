package pantompkins

import "fmt"

// EventKind classifies detector trace events.
type EventKind int

const (
	// EventAccepted marks an accepted QRS complex.
	EventAccepted EventKind = iota
	// EventNoise marks a candidate classified as noise.
	EventNoise
	// EventTWave marks a candidate rejected by the T-wave slope test.
	EventTWave
	// EventMisaligned marks a candidate that crossed both thresholds but
	// was omitted because its HPF and MWI peaks misalign beyond the preset
	// threshold — the heartbeat-miss mechanism the paper's Fig 13
	// analyses.
	EventMisaligned
	// EventSearchback marks a QRS recovered by the RR searchback.
	EventSearchback
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventAccepted:
		return "accepted"
	case EventNoise:
		return "noise"
	case EventTWave:
		return "t-wave"
	case EventMisaligned:
		return "misaligned"
	case EventSearchback:
		return "searchback"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one detector decision, in MWI sample coordinates.
type Event struct {
	Kind     EventKind
	Index    int // MWI candidate index
	Filtered int // matched filtered-signal peak index (-1 if none)
	Value    int64
}

// Detection is the outcome of the adaptive-threshold peak detector.
type Detection struct {
	// Peaks are detected R positions referred back to the raw signal
	// (filtered-peak position minus the LPF+HPF group delay), ascending.
	Peaks []int
	// MWIPeaks are the accepted candidates in MWI coordinates.
	MWIPeaks []int
	// Events traces every decision for misclassification analysis.
	Events []Event
}

// Detector tuning constants (fractions of the sampling rate are per
// Pan & Tompkins 1985).
const (
	refractoryS   = 0.200 // no two QRS within 200 ms
	tWaveWindowS  = 0.360 // slope test window after a QRS
	searchWindowS = 0.200 // filtered-peak search window behind an MWI peak
	alignAheadS   = 0.050 // filtered peak may trail the MWI peak this far
	searchbackRR  = 1.66  // missed-beat searchback trigger (x mean RR)
	learnS        = 2.0   // threshold learning period
)

// filterDelay is the LPF+HPF group delay in samples, used to refer
// filtered-peak positions back to the raw signal.
const filterDelay = 5 + 16

// Detect runs adaptive-threshold QRS detection over the filtered
// (pre-processed) and integrated signals, both sampled at fs Hz, by
// running StreamDetector's decisions over the two whole signals.
//
// The decision logic follows Pan & Tompkins: dual signal/noise threshold
// pairs on the integrated and filtered signals with 0.125 running updates,
// a 200 ms refractory period, a T-wave slope test inside 360 ms, and an
// RR-interval searchback with lowered thresholds. On top of that sits the
// paper's alignment cross-check: a candidate whose filtered peak misaligns
// with its MWI peak by more than the preset window is omitted as a
// classification error (Fig 13).
//
// Degenerate inputs are defined, not errors: empty signals, mismatched
// lengths (which cannot arise on the streaming API) and a non-positive fs
// all yield an empty Detection, and a record shorter than the 2 s
// learning window learns from the whole record.
//
// Detect allocates a fresh Detection per call; batch callers grading many
// records (the evaluation loop) should reuse a PeakDetector.
func Detect(filtered, integrated []int64, fs int) Detection {
	var pd PeakDetector
	return *pd.Detect(filtered, integrated, fs)
}

// PeakDetector is Detect with its working state reused across calls, so a
// warm detector grades a record without allocating. It reads the caller's
// signals in place through a StreamDetector's sample window, so a whole
// record is neither copied nor buffered, and it keeps neither signal
// after Detect returns. The returned Detection aliases the detector's
// buffers and is valid until the next Detect call. The zero value is
// ready to use, and one detector may grade records of any sampling rate.
type PeakDetector struct {
	d StreamDetector
}

// Detect grades one record; see Detect for the algorithm.
func (pd *PeakDetector) Detect(filtered, integrated []int64, fs int) *Detection {
	d := &pd.d
	d.fs = fs
	d.Reset()
	n := len(integrated)
	if fs <= 0 || n == 0 || len(filtered) != n {
		return &d.det
	}
	d.f, d.in, d.t = filtered, integrated, n
	learn := min(d.learn, n)
	for i := 0; i < learn; i++ {
		d.learnSample(filtered[i], integrated[i])
	}
	d.seed(learn)
	d.advance(true)
	d.f, d.in = nil, nil
	return &d.det
}

// absf returns |x| as float64.
func absf(x int64) float64 {
	if x < 0 {
		x = -x
	}
	return float64(x)
}
