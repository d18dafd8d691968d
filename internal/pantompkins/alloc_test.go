package pantompkins

import (
	"testing"

	"github.com/xbiosip/xbiosip/internal/ecg"
)

// TestRunIntoMatchesRun reuses one Outputs (and the pipeline's widened-
// sample scratch) across records of different lengths and demands every
// signal equal a fresh Run's, so the buffer-reusing batch path cannot leak
// state between records.
func TestRunIntoMatchesRun(t *testing.T) {
	recA := testRecord(t, 2500)
	recB, err := ecg.NSRDBRecord(1, 1800)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range streamConfigs(t) {
		t.Run(name, func(t *testing.T) {
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var out Outputs
			for _, rec := range []*ecg.Record{recA, recB, recA} {
				p.RunInto(&out, rec.Samples)
				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalOutputs(t, fresh.Run(rec.Samples), &out, name)
			}
		})
	}
}

// TestPushZeroAllocs asserts the streaming hot path performs zero
// allocations per sample, for the accurate and the approximate pipeline
// alike — the near-sensor deployment contract.
func TestPushZeroAllocs(t *testing.T) {
	rec := testRecord(t, 512)
	for name, cfg := range streamConfigs(t) {
		t.Run(name, func(t *testing.T) {
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the delay lines before measuring.
			for _, x := range rec.Samples {
				p.Push(x)
			}
			i := 0
			avg := testing.AllocsPerRun(1000, func() {
				p.Push(rec.Samples[i&511])
				i++
			})
			if avg != 0 {
				t.Fatalf("Pipeline.Push allocates %.2f times per sample, want 0", avg)
			}
		})
	}
}

// TestPeakDetectorMatchesDetect reuses one PeakDetector across records of
// different configurations and lengths and demands detections identical to
// the oracle, then checks the warm detector runs allocation-free.
func TestPeakDetectorMatchesDetect(t *testing.T) {
	recA := testRecord(t, 2500)
	recB, err := ecg.NSRDBRecord(1, 1800)
	if err != nil {
		t.Fatal(err)
	}
	var pd PeakDetector
	for name, cfg := range streamConfigs(t) {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []*ecg.Record{recA, recB, recA} {
			out := p.Run(rec.Samples)
			want := oracleDetect(out.Filtered, out.Integrated, rec.FS)
			requireSameDetection(t, name, want, pd.Detect(out.Filtered, out.Integrated, rec.FS))
		}
	}
	// Warm detector: zero allocations per record.
	p, err := New(AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := p.Run(recA.Samples)
	pd.Detect(out.Filtered, out.Integrated, recA.FS)
	if avg := testing.AllocsPerRun(20, func() { pd.Detect(out.Filtered, out.Integrated, recA.FS) }); avg != 0 {
		t.Fatalf("warm PeakDetector.Detect allocates %.2f times per record, want 0", avg)
	}
}
