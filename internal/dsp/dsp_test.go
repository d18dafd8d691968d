package dsp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/xbiosip/xbiosip/internal/approx"
)

func TestAccurateFIRMatchesConvolution(t *testing.T) {
	coeffs := []int64{1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1}
	f, err := NewFIR(coeffs, 0, Accurate())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	xs := make([]int64, 300)
	for i := range xs {
		// Small values: |y| <= 500*36 stays inside the 16-bit output slice.
		xs[i] = int64(rng.Intn(1000) - 500)
	}
	got := f.FilterInto(nil, xs)
	for n := range xs {
		var want int64
		for i, c := range coeffs {
			if n-i >= 0 {
				want += c * xs[n-i]
			}
		}
		if got[n] != want {
			t.Fatalf("sample %d: got %d, want %d", n, got[n], want)
		}
	}
}

func TestAccurateFIRNegativeCoefficients(t *testing.T) {
	coeffs := []int64{2, 1, 0, -1, -2}
	f, err := NewFIR(coeffs, 0, Accurate())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	xs := make([]int64, 200)
	for i := range xs {
		xs[i] = int64(int16(rng.Uint64())) / 8
	}
	got := f.FilterInto(nil, xs)
	for n := range xs {
		var want int64
		for i, c := range coeffs {
			if n-i >= 0 {
				want += c * xs[n-i]
			}
		}
		if got[n] != want {
			t.Fatalf("sample %d: got %d, want %d", n, got[n], want)
		}
	}
}

func TestFIROutputShift(t *testing.T) {
	f, err := NewFIR([]int64{32}, 5, Accurate())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{0, 1, 100, -100, 32767, -32768} {
		f.Reset()
		if got := f.Process(x); got != x {
			t.Errorf("(32*%d)>>5 = %d, want %d", x, got, x)
		}
	}
}

func TestFIRResetClearsState(t *testing.T) {
	f, err := NewFIR([]int64{1, 1, 1}, 0, Accurate())
	if err != nil {
		t.Fatal(err)
	}
	f.Process(100)
	f.Process(200)
	f.Reset()
	if got := f.Process(5); got != 5 {
		t.Errorf("after Reset, first output = %d, want 5", got)
	}
}

func TestFIRApproximationChangesOutput(t *testing.T) {
	coeffs := []int64{1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1}
	acc, _ := NewFIR(coeffs, 5, Accurate())
	app, err := NewFIR(coeffs, 5, ArithConfig{LSBs: 12, Add: approx.ApproxAdd5, Mul: approx.AppMultV1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	differs := false
	for i := 0; i < 500; i++ {
		x := int64(int16(rng.Uint64()))
		if acc.Process(x) != app.Process(x) {
			differs = true
		}
	}
	if !differs {
		t.Error("12-LSB approximation never changed the LPF output")
	}
}

func TestFIRValidation(t *testing.T) {
	if _, err := NewFIR(nil, 0, Accurate()); err == nil {
		t.Error("empty coefficients accepted")
	}
	if _, err := NewFIR([]int64{1}, -1, Accurate()); err == nil {
		t.Error("negative shift accepted")
	}
	if _, err := NewFIR([]int64{1}, AccWidth, Accurate()); err == nil {
		t.Error("oversized shift accepted")
	}
	if _, err := NewFIR([]int64{1}, 0, ArithConfig{LSBs: -1}); err == nil {
		t.Error("negative LSBs accepted")
	}
}

// TestArithConfigCanonical: zero LSBs clears the dead kinds, any other
// count keeps the configuration as it is.
func TestArithConfigCanonical(t *testing.T) {
	spelled := ArithConfig{Add: approx.ApproxAdd3, Mul: approx.AppMultV2}
	if got := spelled.Canonical(); got != Accurate() {
		t.Errorf("%v.Canonical() = %v, want %v", spelled, got, Accurate())
	}
	approxCfg := ArithConfig{LSBs: 4, Add: approx.ApproxAdd3, Mul: approx.AppMultV2}
	if got := approxCfg.Canonical(); got != approxCfg {
		t.Errorf("%v.Canonical() = %v, want it unchanged", approxCfg, got)
	}
}

func TestFIRAccessors(t *testing.T) {
	coeffs := []int64{3, -1, 4}
	f, err := NewFIR(coeffs, 0, Accurate())
	if err != nil {
		t.Fatal(err)
	}
	if f.n != 3 {
		t.Errorf("taps = %d", f.n)
	}
}

func TestMovingSumAccurate(t *testing.T) {
	m, err := NewMovingSum(4, 0, Accurate())
	if err != nil {
		t.Fatal(err)
	}
	xs := []int64{1, 2, 3, 4, 5, 6}
	want := []int64{1, 3, 6, 10, 14, 18}
	got := m.FilterInto(nil, xs)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMovingSumShift(t *testing.T) {
	m, err := NewMovingSum(32, 5, Accurate())
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for i := 0; i < 64; i++ {
		last = m.Process(32)
	}
	if last != 32 { // (32*32)>>5
		t.Errorf("windowed average = %d, want 32", last)
	}
}

func TestMovingSumValidation(t *testing.T) {
	if _, err := NewMovingSum(1, 0, Accurate()); err == nil {
		t.Error("window 1 accepted")
	}
	if _, err := NewMovingSum(8, AccWidth, Accurate()); err == nil {
		t.Error("oversized shift accepted")
	}
}

func TestSquarerAccurate(t *testing.T) {
	s, err := NewSquarer(0, Accurate())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{0, 1, -1, 100, -100, 32767, -32768} {
		if got := s.Process(x); got != x*x {
			t.Errorf("Square(%d) = %d, want %d", x, got, x*x)
		}
	}
}

func TestSquarerNonNegativeUnderApproximation(t *testing.T) {
	// The sign-magnitude squarer never goes negative, approximated or not.
	s, err := NewSquarer(0, ArithConfig{LSBs: 8, Add: approx.ApproxAdd5, Mul: approx.AppMultV2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		x := int64(int16(rng.Uint64()))
		if got := s.Process(x); got < 0 {
			t.Fatalf("Square(%d) = %d < 0", x, got)
		}
	}
}

func TestSquarerValidation(t *testing.T) {
	if _, err := NewSquarer(-1, Accurate()); err == nil {
		t.Error("negative shift accepted")
	}
	if _, err := NewSquarer(31, Accurate()); err != nil {
		t.Errorf("shift 31 rejected: %v", err)
	}
	if _, err := NewSquarer(2*SampleWidth, Accurate()); err == nil {
		t.Error("oversized shift accepted")
	}
}

func TestQuickFIRLinearityAccurate(t *testing.T) {
	// Property: the accurate FIR is linear: F(a+b) == F(a)+F(b) for
	// small inputs (no accumulator overflow).
	coeffs := []int64{1, -2, 3}
	f1, _ := NewFIR(coeffs, 0, Accurate())
	f2, _ := NewFIR(coeffs, 0, Accurate())
	f3, _ := NewFIR(coeffs, 0, Accurate())
	prop := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		a := make([]int64, len(raw))
		b := make([]int64, len(raw))
		sum := make([]int64, len(raw))
		for i, r := range raw {
			a[i] = int64(r)
			b[i] = int64(r) * 2
			sum[i] = a[i] + b[i]
		}
		ya := f1.FilterInto(nil, a)
		yb := f2.FilterInto(nil, b)
		ys := f3.FilterInto(nil, sum)
		for i := range ys {
			if ys[i] != ya[i]+yb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestArithConfigString(t *testing.T) {
	c := ArithConfig{LSBs: 8, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	if got := c.String(); got != "k=8/ApproxAdd5/AppMultV1" {
		t.Errorf("String = %q", got)
	}
}

// TestFilterIntoReusesBuffers checks the Into variants of all three stages
// produce outputs identical to the allocating path while reusing a
// caller-provided buffer across calls of shrinking and growing lengths.
func TestFilterIntoReusesBuffers(t *testing.T) {
	cfg := ArithConfig{LSBs: 6, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	fir, err := NewFIR([]int64{2, 1, 0, -1, -2}, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mwi, err := NewMovingSum(8, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sqr, err := NewSquarer(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var fBuf, mBuf, sBuf []int64
	for _, n := range []int{400, 150, 600} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(int16(rng.Uint64()))
		}
		fBuf = fir.FilterInto(fBuf, xs)
		mBuf = mwi.FilterInto(mBuf, xs)
		sBuf = sqr.FilterInto(sBuf, xs)
		wantF := fir.FilterInto(nil, xs)
		wantM := mwi.FilterInto(nil, xs)
		wantS := sqr.FilterInto(nil, xs)
		for i := range xs {
			if fBuf[i] != wantF[i] {
				t.Fatalf("FIR FilterInto[%d] = %d, fresh buffer %d", i, fBuf[i], wantF[i])
			}
			if mBuf[i] != wantM[i] {
				t.Fatalf("MovingSum FilterInto[%d] = %d, fresh buffer %d", i, mBuf[i], wantM[i])
			}
			if sBuf[i] != wantS[i] {
				t.Fatalf("Squarer FilterInto[%d] = %d, fresh buffer %d", i, sBuf[i], wantS[i])
			}
		}
	}
}

// TestFilterIntoOverlappingBuffers feeds the batch paths output buffers
// that overlap the input (same start and offset overlap, both directions)
// and demands results identical to a disjoint destination: the chain and
// sliding kernels read delayed inputs after earlier outputs were written,
// so overlapping buffers must be detected and split internally.
func TestFilterIntoOverlappingBuffers(t *testing.T) {
	const n = 256
	base := make([]int64, n+8)
	for i := range base {
		base[i] = int64(int16(i*2654435761 ^ i<<7))
	}
	overlapCases := func() map[string][2][]int64 {
		// Fresh backing per case: the aliased runs mutate it.
		buf := append([]int64(nil), base...)
		return map[string][2][]int64{
			"same-start": {buf[:n], buf[:n]},
			"dst-ahead":  {buf[4 : n+4], buf[:n]},
			"dst-behind": {buf[:n], buf[4 : n+4]},
		}
	}
	for _, cfg := range []ArithConfig{Accurate(), {LSBs: 8, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}} {
		fir, err := NewFIR([]int64{2, -1, 0, 3, 1}, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mwi, err := NewMovingSum(8, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sqr, err := NewSquarer(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stages := map[string]interface {
			FilterInto(dst, xs []int64) []int64
		}{"fir": fir, "mwi": mwi, "sqr": sqr}
		for sname, stage := range stages {
			for cname, bufs := range overlapCases() {
				dst, xs := bufs[0], bufs[1]
				in := append([]int64(nil), xs...)
				want := stage.FilterInto(nil, in)
				got := stage.FilterInto(dst, xs)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v %s %s: out[%d] = %d, disjoint run %d", cfg, sname, cname, i, got[i], want[i])
					}
				}
			}
		}
	}
}
