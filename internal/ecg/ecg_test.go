package ecg

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	c := DefaultConfig()
	r1, err := c.Generate("a", 5000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Generate("a", 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Samples) != len(r2.Samples) {
		t.Fatal("lengths differ")
	}
	for i := range r1.Samples {
		if r1.Samples[i] != r2.Samples[i] {
			t.Fatalf("sample %d differs: %d vs %d", i, r1.Samples[i], r2.Samples[i])
		}
	}
}

func TestGenerateSeedChangesSignal(t *testing.T) {
	c := DefaultConfig()
	r1, _ := c.Generate("a", 5000)
	c.Seed = 2
	r2, _ := c.Generate("a", 5000)
	same := true
	for i := range r1.Samples {
		if r1.Samples[i] != r2.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical records")
	}
}

func TestBeatRateMatchesHeartRate(t *testing.T) {
	c := DefaultConfig()
	c.HeartRate = 60
	c.Noise = Noise{} // clean
	n := 60 * c.FS    // one minute
	r, err := c.Generate("hr", n)
	if err != nil {
		t.Fatal(err)
	}
	beats := len(r.Annotations)
	if beats < 55 || beats > 65 {
		t.Errorf("60 bpm for 60 s produced %d beats", beats)
	}
}

func TestAnnotationsAlignWithRPeaks(t *testing.T) {
	c := DefaultConfig()
	c.Noise = Noise{}
	r, err := c.Generate("align", 10000)
	if err != nil {
		t.Fatal(err)
	}
	for _, ann := range r.Annotations {
		// The annotated sample should be a local maximum region: the R
		// wave dominates everything within +-10 samples.
		lo, hi := ann-10, ann+10
		if lo < 0 || hi >= len(r.Samples) {
			continue
		}
		best := lo
		for i := lo; i <= hi; i++ {
			if r.Samples[i] > r.Samples[best] {
				best = i
			}
		}
		if d := best - ann; d < -2 || d > 2 {
			t.Fatalf("annotation %d is %d samples from the local R maximum", ann, d)
		}
	}
}

func TestAnnotationsSortedAndInRange(t *testing.T) {
	r, err := NSRDBRecord(3, 8000)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range r.Annotations {
		if a < 0 || a >= len(r.Samples) {
			t.Fatalf("annotation %d out of range", a)
		}
		if i > 0 && a <= r.Annotations[i-1] {
			t.Fatalf("annotations not strictly increasing at %d", i)
		}
	}
}

func TestADCClampsToRange(t *testing.T) {
	c := DefaultConfig()
	c.Beat.R.AmpMV = 100 // absurd amplitude saturates the ADC
	r, err := c.Generate("sat", 2000)
	if err != nil {
		t.Fatal(err)
	}
	sawMax := false
	for _, s := range r.Samples {
		if s == 32767 {
			sawMax = true
		}
	}
	if !sawMax {
		t.Error("100 mV R wave did not saturate the 16-bit ADC")
	}
}

func TestNSRDBCorpus(t *testing.T) {
	for i := 0; i < NumNSRDBRecords; i++ {
		r, err := NSRDBRecord(i, 4000)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if len(r.Annotations) < 10 {
			t.Errorf("record %d has only %d beats in 20 s", i, len(r.Annotations))
		}
	}
	if _, err := NSRDBRecord(NumNSRDBRecords, 100); err == nil {
		t.Error("out-of-range record accepted")
	}
	if _, err := NSRDBRecord(-1, 100); err == nil {
		t.Error("negative record accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.FS = 0 },
		func(c *Config) { c.HeartRate = 5 },
		func(c *Config) { c.HeartRate = 400 },
		func(c *Config) { c.ADCBits = 1 },
		func(c *Config) { c.ADCBits = 20 },
		func(c *Config) { c.ADCRangeMV = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if _, err := c.Generate("bad", 100); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	c := DefaultConfig()
	if _, err := c.Generate("n", 0); err == nil {
		t.Error("zero-length record accepted")
	}
}

func TestMilliVoltsRoundTrip(t *testing.T) {
	c := DefaultConfig()
	r, err := c.Generate("mv", 1000)
	if err != nil {
		t.Fatal(err)
	}
	mv := c.MilliVolts(r.Samples)
	step := c.ADCRangeMV / math.Exp2(float64(c.ADCBits-1))
	for i := range mv {
		if math.Abs(mv[i]-float64(r.Samples[i])*step) > 1e-12 {
			t.Fatalf("conversion mismatch at %d", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r, err := NSRDBRecord(1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	r2, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Name != r.Name || r2.FS != r.FS {
		t.Errorf("header mismatch: %q/%d vs %q/%d", r2.Name, r2.FS, r.Name, r.FS)
	}
	if len(r2.Samples) != len(r.Samples) {
		t.Fatalf("sample count %d vs %d", len(r2.Samples), len(r.Samples))
	}
	for i := range r.Samples {
		if r.Samples[i] != r2.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	if len(r2.Annotations) != len(r.Annotations) {
		t.Fatalf("annotation count %d vs %d", len(r2.Annotations), len(r.Annotations))
	}
	for i := range r.Annotations {
		if r.Annotations[i] != r2.Annotations[i] {
			t.Fatalf("annotation %d differs", i)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := []struct {
		in   string
		line int // line the error must name; 0 = none
	}{
		{"", 0},                                       // missing header
		{"1,2,3\n", 1},                                // row before any header
		{"# record a fs 200\n5,1,0\n", 2},             // non-contiguous index
		{"# record a fs 200\n0,99999,0\n", 2},         // sample exceeds int16
		{"# record a fs 200\n0,x,0\n", 2},             // non-numeric
		{"# record a fs 200\n0,1\n", 2},               // wrong field count
		{"# record x fs -360\n0,1,0\n", 1},            // negative sampling rate
		{"# record x fs 0\n0,1,0\n", 1},               // zero sampling rate
		{"# record a fs 200\n0,1,7\n", 2},             // annotation mark 7
		{"# record a fs 200\n0,1,0\n1,1,-1\n", 3},     // annotation mark -1
		{"0,1,0\n# record a fs 200\n", 1},             // sample row before the header
		{"# record a fs 200\n\n# record b fs 9\n", 3}, // second header
		{"# recording a\n", 1},                        // malformed header
	}
	for i, c := range cases {
		_, err := ReadCSV(bytes.NewBufferString(c.in))
		if err == nil {
			t.Errorf("case %d %q accepted", i, c.in)
			continue
		}
		if want := fmt.Sprintf("CSV line %d", c.line); c.line > 0 && !strings.Contains(err.Error(), want) {
			t.Errorf("case %d %q: error %q does not name %q", i, c.in, err, want)
		}
	}
}

func TestQuickGeneratorProducesBoundedSamples(t *testing.T) {
	// Property: any physiological parameterisation stays within ADC range
	// and produces annotations strictly inside the record.
	f := func(seed int64, hrRaw uint8) bool {
		c := DefaultConfig()
		c.Seed = seed
		c.HeartRate = 40 + float64(hrRaw%120)
		r, err := c.Generate("q", 2000)
		if err != nil {
			return false
		}
		for _, a := range r.Annotations {
			if a < 0 || a >= len(r.Samples) {
				return false
			}
		}
		return len(r.Samples) == 2000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
