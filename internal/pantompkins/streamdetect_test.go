package pantompkins

import (
	"runtime"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
)

// pushAll streams both detector inputs sample by sample and returns the
// finished detection.
func pushAll(d *StreamDetector, filtered, integrated []int64) *Detection {
	for i := range integrated {
		d.Push(filtered[i], integrated[i])
	}
	return d.Finish()
}

// requireSameDetection compares every field of two detections, including
// the full event trace and its order.
func requireSameDetection(t *testing.T, label string, want Detection, got *Detection) {
	t.Helper()
	if len(got.Peaks) != len(want.Peaks) || len(got.MWIPeaks) != len(want.MWIPeaks) || len(got.Events) != len(want.Events) {
		t.Fatalf("%s: found %d/%d/%d peaks/MWI/events, want %d/%d/%d",
			label, len(got.Peaks), len(got.MWIPeaks), len(got.Events),
			len(want.Peaks), len(want.MWIPeaks), len(want.Events))
	}
	for i := range want.Peaks {
		if got.Peaks[i] != want.Peaks[i] || got.MWIPeaks[i] != want.MWIPeaks[i] {
			t.Fatalf("%s: peak %d = (%d,%d), want (%d,%d)", label, i,
				got.Peaks[i], got.MWIPeaks[i], want.Peaks[i], want.MWIPeaks[i])
		}
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got.Events[i], want.Events[i])
		}
	}
}

// fig11SweepConfigs enumerates the configurations the Fig. 11 exploration
// visits: for each stage-count prefix, every single-stage candidate of the
// phase-wise Algorithm 1 over the default LSB lists with the paper's
// module pair — a superset of any actual run's trace (the algorithm
// explores a phase until its constraint filter stops it).
func fig11SweepConfigs() []Config {
	lsbs := map[Stage][]int{}
	for _, s := range Stages {
		var l []int
		for k := MaxLSBs[s]; k >= 0; k -= 2 {
			l = append(l, k)
		}
		lsbs[s] = l
	}
	seen := map[string]bool{}
	var cfgs []Config
	add := func(c Config) {
		if key := c.String(); !seen[key] {
			seen[key] = true
			cfgs = append(cfgs, c)
		}
	}
	add(AccurateConfig())
	// Phase p approximates stage p on top of a base that fixes the best
	// previous stages; sweeping each stage independently over its list
	// (plus pairwise combinations of adjacent phases' picks) covers every
	// candidate Algorithm 1 can visit without re-running the search.
	for _, s := range Stages {
		for _, k := range lsbs[s] {
			var c Config
			if k > 0 {
				c.Stage[s] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
			}
			add(c)
		}
	}
	// Mixed multi-stage designs representative of accepted phase results
	// (the paper's B-style vectors).
	for _, ks := range [][NumStages]int{
		{10, 12, 2, 8, 16},
		{16, 16, 4, 8, 16},
		{2, 2, 2, 2, 2},
		{8, 0, 4, 0, 16},
	} {
		var c Config
		for i, s := range Stages {
			if ks[i] > 0 {
				c.Stage[s] = dsp.ArithConfig{LSBs: ks[i], Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
			}
		}
		add(c)
	}
	return cfgs
}

// TestStreamDetectorMatchesDetectSweep proves the streamed and the
// whole-record (PeakDetector) forms of the detector bit-identical to the
// oracle — peaks, MWI indices and the complete event trace — on every
// bundled NSRDB record for the Fig. 11 sweep's configurations.
func TestStreamDetectorMatchesDetectSweep(t *testing.T) {
	configs := fig11SweepConfigs()
	records := ecg.NumNSRDBRecords
	samples := 2400
	if testing.Short() {
		records, samples = 4, 1600
	}
	var recs []*ecg.Record
	for r := 0; r < records; r++ {
		rec, err := ecg.NSRDBRecord(r, samples)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	var od oracleDetector
	var pd PeakDetector
	for _, cfg := range configs {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sd := NewStreamDetector(recs[0].FS)
		var out Outputs
		for _, rec := range recs {
			p.RunInto(&out, rec.Samples)
			want := *od.Detect(out.Filtered, out.Integrated, rec.FS)
			label := cfg.String() + "/" + rec.Name
			requireSameDetection(t, label+"/PeakDetector", want, pd.Detect(out.Filtered, out.Integrated, rec.FS))
			sd.Reset()
			requireSameDetection(t, label+"/StreamDetector", want, pushAll(sd, out.Filtered, out.Integrated))
		}
	}
}

// TestStreamMatchesProcess drives the full streaming path — raw samples
// through Pipeline.Stream — and demands the detection equal the batch
// Process result end to end, and both equal the oracle over the batch
// outputs.
func TestStreamMatchesProcess(t *testing.T) {
	rec := testRecord(t, 4000)
	for name, cfg := range streamConfigs(t) {
		t.Run(name, func(t *testing.T) {
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := p.Process(rec)
			want := oracleDetect(res.Outputs.Filtered, res.Outputs.Integrated, rec.FS)
			requireSameDetection(t, name+"/Process", want, &res.Detection)

			sp, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := sp.Stream(rec.FS)
			for _, x := range rec.Samples {
				st.Push(x)
			}
			requireSameDetection(t, name+"/Stream", want, st.Finish())
		})
	}
}

// TestStreamDetectorDegenerateInputs pins the degenerate-input contract:
// empty input, a single sample, a stream shorter than the learning
// window, fs = 0 and mismatched-length batch inputs all yield the
// oracle's (empty or short-record) detection from Detect,
// PeakDetector.Detect and StreamDetector.
func TestStreamDetectorDegenerateInputs(t *testing.T) {
	short := make([]int64, 120) // shorter than the 2 s learning window
	for i := range short {
		short[i] = int64((i % 7) * 100)
	}
	cases := []struct {
		name                 string
		filtered, integrated []int64
		fs                   int
		streamable           bool // expressible as a stream (equal lengths)
	}{
		{"nil-nil", nil, nil, 360, true},
		{"empty", []int64{}, []int64{}, 360, true},
		{"single-sample", []int64{42}, []int64{99}, 360, true},
		{"two-samples", []int64{1, 2}, []int64{3, 4}, 360, true},
		{"short-record", short, short, 360, true},
		{"fs-zero", short, short, 0, true},
		{"fs-negative", short, short, -5, true},
		{"mismatched", short, short[:50], 360, false},
	}
	var pd PeakDetector
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := oracleDetect(tc.filtered, tc.integrated, tc.fs)
			fresh := Detect(tc.filtered, tc.integrated, tc.fs)
			requireSameDetection(t, "Detect", want, &fresh)
			requireSameDetection(t, "PeakDetector", want, pd.Detect(tc.filtered, tc.integrated, tc.fs))
			if !tc.streamable {
				// Mismatched lengths cannot arise on the streaming API;
				// the whole-signal entry points define them as an empty
				// detection.
				if len(fresh.Peaks) != 0 || len(fresh.Events) != 0 {
					t.Fatalf("mismatched-length Detect returned %d peaks, want empty", len(fresh.Peaks))
				}
				return
			}
			sd := NewStreamDetector(tc.fs)
			got := pushAll(sd, tc.filtered, tc.integrated)
			requireSameDetection(t, "StreamDetector", want, got)
			// Finish is idempotent and Reset restarts cleanly.
			requireSameDetection(t, "StreamDetector/Finish-again", want, sd.Finish())
			sd.Reset()
			requireSameDetection(t, "StreamDetector/after-Reset", want, pushAll(sd, tc.filtered, tc.integrated))
		})
	}
}

// TestStreamDetectorPushBlockEdges pins PushBlock's edge cases: an empty
// block is a no-op, before Finish and after it, and a non-empty block
// after Finish panics just as Push does.
func TestStreamDetectorPushBlockEdges(t *testing.T) {
	rec := testRecord(t, 3000)
	p, err := New(AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := p.Run(rec.Samples)
	want := oracleDetect(out.Filtered, out.Integrated, rec.FS)
	n := len(out.Filtered)
	sd := NewStreamDetector(rec.FS)
	for i := 0; i < n; i += 100 {
		j := min(i+100, n)
		sd.PushBlock(nil, nil)
		sd.PushBlock(out.Filtered[i:i], out.Integrated[i:i])
		sd.PushBlock(out.Filtered[i:j], out.Integrated[i:j])
	}
	if got := sd.Samples(); got != n {
		t.Fatalf("empty blocks counted: %d samples pushed, want %d", got, n)
	}
	requireSameDetection(t, "interleaved empty blocks", want, sd.Finish())
	sd.PushBlock(nil, nil)
	requireSameDetection(t, "empty block after Finish", want, sd.Finish())
	for name, push := range map[string]func(){
		"Push":      func() { sd.Push(1, 1) },
		"PushBlock": func() { sd.PushBlock([]int64{1}, []int64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Finish did not panic", name)
				}
			}()
			push()
		}()
	}
}

// TestStreamDetectorLiveView checks the partial Detection view never
// reports a beat the oracle would not: every prefix of the streamed
// decisions is a prefix of the final ones.
func TestStreamDetectorLiveView(t *testing.T) {
	rec := testRecord(t, 3000)
	p, err := New(streamConfigs(t)["b9-mixed"])
	if err != nil {
		t.Fatal(err)
	}
	out := p.Run(rec.Samples)
	want := oracleDetect(out.Filtered, out.Integrated, rec.FS)

	sd := NewStreamDetector(rec.FS)
	seen := 0
	for i := range out.Filtered {
		sd.Push(out.Filtered[i], out.Integrated[i])
		live := sd.Detection()
		if len(live.Peaks) < seen {
			t.Fatalf("live peak count shrank at sample %d", i)
		}
		seen = len(live.Peaks)
		if len(live.Peaks) > len(want.Peaks) {
			t.Fatalf("live view reports %d peaks, final detection has %d", len(live.Peaks), len(want.Peaks))
		}
		for j := 0; j < len(live.Peaks); j++ {
			if live.Peaks[j] != want.Peaks[j] {
				t.Fatalf("live peak %d = %d, want %d", j, live.Peaks[j], want.Peaks[j])
			}
		}
	}
	sd.Finish()
}

// TestStreamDetectorBoundedState streams 10^6 samples (46 min at 360 Hz)
// in which no candidate qualifies for searchback: one tall bump inside the
// learning window lifts the thresholds far above the low bumps that
// follow every 300 samples, so each of those is an aligned noise
// candidate. Trimming the emitted decisions after every 24-sample chunk,
// as the serve drain does, the detector must hold its state in fixed
// memory: pushing samples 2×10^5 to 10^6 allocates nothing, and the
// sample window stays within the 188-entry decision horizon.
func TestStreamDetectorBoundedState(t *testing.T) {
	const fs, warm, total, chunk = 360, 200_000, 1_000_000, 24
	signal := func(j int) int64 {
		h := int64(10)
		if j/300 == 1 {
			h = 500
		}
		if k := j%300 - 150; k > -10 && k < 10 {
			return h * int64(10-max(k, -k))
		}
		return 0
	}
	d := NewStreamDetector(fs)
	noise := 0
	push := func(from, to int) {
		for j := from; j < to; j++ {
			d.Push(signal(j), signal(j))
			if (j+1)%chunk == 0 {
				det := d.Detection()
				for _, e := range det.Events {
					if e.Kind == EventNoise {
						noise++
					}
				}
				d.Discard(len(det.Events), len(det.Peaks))
			}
		}
	}
	push(0, warm)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	push(warm, total)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("pushing samples %d to %d allocated %d times, want 0", warm, total, n)
	}
	if b := horizonBound(fs); b != 188 {
		t.Fatalf("horizon bound at %d Hz = %d, want 188", fs, b)
	}
	requireHorizon(t, "bounded stream", d, total)
	if want := total/300 - 2; noise < want {
		t.Fatalf("%d noise decisions, want at least %d: the signal no longer exercises the searchback state", noise, want)
	}
}
