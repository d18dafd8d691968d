package pantompkins

import (
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
)

// streamConfigs are the configurations the streaming/batch equivalence is
// proven for: exact, uniformly approximate, and a mixed per-stage design
// like the paper's generated processors (B9's LSB vector).
func streamConfigs(t *testing.T) map[string]Config {
	t.Helper()
	cfgs := map[string]Config{"accurate": AccurateConfig()}

	var uniform Config
	for _, s := range Stages {
		uniform.Stage[s] = dsp.ArithConfig{LSBs: 4, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	}
	cfgs["uniform-k4"] = uniform

	var b9 Config
	for i, s := range Stages {
		k := []int{10, 12, 2, 8, 16}[i]
		b9.Stage[s] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	}
	cfgs["b9-mixed"] = b9
	return cfgs
}

// Append accumulates one streamed sample onto the collected outputs, so a
// test can compare a stream with the Outputs batch processing returns.
func (o *Outputs) Append(s StreamSample) {
	o.LowPassed = append(o.LowPassed, s.LowPassed)
	o.Filtered = append(o.Filtered, s.Filtered)
	o.Derivative = append(o.Derivative, s.Derivative)
	o.Squared = append(o.Squared, s.Squared)
	o.Integrated = append(o.Integrated, s.Integrated)
}

func testRecord(t *testing.T, n int) *ecg.Record {
	t.Helper()
	rec, err := ecg.NSRDBRecord(0, n)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// stageSignals pairs every Outputs field with its name for exhaustive
// comparison.
func stageSignals(o *Outputs) map[string][]int64 {
	return map[string][]int64{
		"LowPassed":  o.LowPassed,
		"Filtered":   o.Filtered,
		"Derivative": o.Derivative,
		"Squared":    o.Squared,
		"Integrated": o.Integrated,
	}
}

func requireIdenticalOutputs(t *testing.T, want, got *Outputs, label string) {
	t.Helper()
	wantSig, gotSig := stageSignals(want), stageSignals(got)
	for name, w := range wantSig {
		g := gotSig[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %s length %d, want %d", label, name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: %s[%d] = %d, batch Run produced %d", label, name, i, g[i], w[i])
			}
		}
	}
}

// TestPushMatchesRunBitExact streams a record sample by sample and demands
// every stage output equal the batch Run bit for bit, for exact and
// approximate configurations alike.
func TestPushMatchesRunBitExact(t *testing.T) {
	rec := testRecord(t, 3000)
	for name, cfg := range streamConfigs(t) {
		t.Run(name, func(t *testing.T) {
			batchPipe, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := batchPipe.Run(rec.Samples)

			streamPipe, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := &Outputs{}
			for _, x := range rec.Samples {
				got.Append(streamPipe.Push(x))
			}
			requireIdenticalOutputs(t, want, got, name)
		})
	}
}

// TestResetIsolatesRecords pollutes the pipeline state with one record,
// resets, and checks the next record's streamed outputs are identical to
// a fresh pipeline's — the record-by-record multi-record workload.
func TestResetIsolatesRecords(t *testing.T) {
	recA := testRecord(t, 1200)
	recB, err := ecg.NSRDBRecord(1, 1500)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range streamConfigs(t) {
		t.Run(name, func(t *testing.T) {
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range recA.Samples {
				p.Push(x)
			}
			p.Reset()
			got := &Outputs{}
			for _, x := range recB.Samples {
				got.Append(p.Push(x))
			}

			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalOutputs(t, fresh.Run(recB.Samples), got, name)
		})
	}
}

// TestStreamedDetectionMatchesProcess runs detection over streamed outputs
// and over the batch Process result: identical signals must give identical
// peaks end to end.
func TestStreamedDetectionMatchesProcess(t *testing.T) {
	rec := testRecord(t, 4000)
	cfg := streamConfigs(t)["b9-mixed"]
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Process(rec)

	sp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp.Reset()
	out := &Outputs{}
	for _, x := range rec.Samples {
		out.Append(sp.Push(x))
	}
	det := Detect(out.Filtered, out.Integrated, rec.FS)
	if len(det.Peaks) != len(want.Detection.Peaks) {
		t.Fatalf("streamed detection found %d peaks, batch %d", len(det.Peaks), len(want.Detection.Peaks))
	}
	for i := range det.Peaks {
		if det.Peaks[i] != want.Detection.Peaks[i] {
			t.Errorf("peak[%d] = %d, batch %d", i, det.Peaks[i], want.Detection.Peaks[i])
		}
	}
}
