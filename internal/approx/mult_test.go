package approx

import "testing"

func TestAccMultIsExact(t *testing.T) {
	for a := uint8(0); a < 4; a++ {
		for b := uint8(0); b < 4; b++ {
			if got := AccMult.Eval(a, b); got != a*b {
				t.Errorf("AccMult(%d,%d) = %d, want %d", a, b, got, a*b)
			}
		}
	}
}

func TestAppMultV1OnlyThreeTimesThreeWrong(t *testing.T) {
	for a := uint8(0); a < 4; a++ {
		for b := uint8(0); b < 4; b++ {
			got := AppMultV1.Eval(a, b)
			if a == 3 && b == 3 {
				if got != 7 {
					t.Errorf("AppMultV1(3,3) = %d, want 7 (Kulkarni under-design)", got)
				}
				continue
			}
			if got != a*b {
				t.Errorf("AppMultV1(%d,%d) = %d, want exact %d", a, b, got, a*b)
			}
		}
	}
}

func TestAppMultV1FitsInThreeBits(t *testing.T) {
	for a := uint8(0); a < 4; a++ {
		for b := uint8(0); b < 4; b++ {
			if got := AppMultV1.Eval(a, b); got > 7 {
				t.Errorf("AppMultV1(%d,%d) = %d exceeds 3 bits", a, b, got)
			}
		}
	}
}

func TestAppMultV2DropsCrossPartialProduct(t *testing.T) {
	// out = a1b1<<2 | a0b1<<1 | a0b0
	for a := uint8(0); a < 4; a++ {
		for b := uint8(0); b < 4; b++ {
			a1, a0 := a>>1&1, a&1
			b1, b0 := b>>1&1, b&1
			want := a1&b1<<2 | (a0&b1)<<1 | a0&b0
			want = (a1&b1)<<2 | (a0&b1)<<1 | (a0 & b0)
			if got := AppMultV2.Eval(a, b); got != want {
				t.Errorf("AppMultV2(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// ErrorPatterns returns the number of the 16 input patterns for which the
// cell's product differs from the exact 2x2 multiplier.
func (k MultKind) ErrorPatterns() int {
	n := 0
	for i := 0; i < 16; i++ {
		if multTruth[k][i] != multTruth[AccMult][i] {
			n++
		}
	}
	return n
}

// MeanAbsError returns the mean absolute product error of the cell over all
// 16 input patterns.
func (k MultKind) MeanAbsError() float64 {
	sum := 0.0
	for i := 0; i < 16; i++ {
		d := int(multTruth[k][i]) - int(multTruth[AccMult][i])
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum / 16
}

func TestMultErrorPatternCounts(t *testing.T) {
	want := map[MultKind]int{AccMult: 0, AppMultV1: 1, AppMultV2: 4}
	for k, n := range want {
		if got := k.ErrorPatterns(); got != n {
			t.Errorf("%v.ErrorPatterns() = %d, want %d", k, got, n)
		}
	}
}

func TestMultMeanAbsErrorOrdering(t *testing.T) {
	if AccMult.MeanAbsError() != 0 {
		t.Errorf("AccMult mean abs error = %v, want 0", AccMult.MeanAbsError())
	}
	if !(AppMultV2.MeanAbsError() > AppMultV1.MeanAbsError()) {
		t.Errorf("V2 mean error %.3f not greater than V1 %.3f",
			AppMultV2.MeanAbsError(), AppMultV1.MeanAbsError())
	}
}

func TestMultCharacteristicsMatchTable1(t *testing.T) {
	cases := []struct {
		kind MultKind
		want Characteristics
	}{
		{AccMult, Characteristics{14.40, 0.16, 1.80, 0.288}},
		{AppMultV1, Characteristics{11.52, 0.13, 1.67, 0.167}},
		{AppMultV2, Characteristics{9.72, 0.06, 1.37, 0.137}},
	}
	for _, c := range cases {
		if got := c.kind.Characteristics(); got != c.want {
			t.Errorf("%v.Characteristics() = %+v, want %+v", c.kind, got, c.want)
		}
	}
}

func TestMultEnergyOrderingIsDescending(t *testing.T) {
	for i := 1; i < len(MultKinds); i++ {
		prev := MultKinds[i-1].Characteristics().Energy
		cur := MultKinds[i].Characteristics().Energy
		if cur > prev {
			t.Errorf("energy ordering violated at %v", MultKinds[i])
		}
	}
}

func TestMultKindStringRoundTrip(t *testing.T) {
	for _, k := range MultKinds {
		got, err := ParseMultKind(k.String())
		if err != nil {
			t.Fatalf("ParseMultKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	if _, err := ParseMultKind("bogus"); err == nil {
		t.Error("ParseMultKind(bogus) succeeded, want error")
	}
}
