package approx

import "testing"

func TestAccAddMatchesExactAddition(t *testing.T) {
	for a := uint8(0); a < 2; a++ {
		for b := uint8(0); b < 2; b++ {
			for c := uint8(0); c < 2; c++ {
				sum, cout := AccAdd.Eval(a, b, c)
				want := a + b + c
				if got := cout<<1 | sum; got != want {
					t.Errorf("AccAdd(%d,%d,%d) = %d, want %d", a, b, c, got, want)
				}
			}
		}
	}
}

func TestApproxAdd1SingleErrorPattern(t *testing.T) {
	for a := uint8(0); a < 2; a++ {
		for b := uint8(0); b < 2; b++ {
			for c := uint8(0); c < 2; c++ {
				s, co := ApproxAdd1.Eval(a, b, c)
				es, eco := AccAdd.Eval(a, b, c)
				wrong := s != es || co != eco
				isErrPattern := a == 0 && b == 1 && c == 0
				if wrong != isErrPattern {
					t.Errorf("AMA1(%d,%d,%d): wrong=%v, want error only at (0,1,0)", a, b, c, wrong)
				}
			}
		}
	}
}

func TestApproxAdd2SumIsComplementOfExactCarry(t *testing.T) {
	for i := uint8(0); i < 8; i++ {
		a, b, c := i>>2&1, i>>1&1, i&1
		s, co := ApproxAdd2.Eval(a, b, c)
		_, eco := AccAdd.Eval(a, b, c)
		if co != eco {
			t.Errorf("AMA2 carry(%d,%d,%d) = %d, want exact %d", a, b, c, co, eco)
		}
		if s != 1-eco {
			t.Errorf("AMA2 sum(%d,%d,%d) = %d, want NOT exact carry %d", a, b, c, s, 1-eco)
		}
	}
}

func TestApproxAdd3SumIsComplementOfOwnCarry(t *testing.T) {
	for i := uint8(0); i < 8; i++ {
		a, b, c := i>>2&1, i>>1&1, i&1
		s, co := ApproxAdd3.Eval(a, b, c)
		_, co1 := ApproxAdd1.Eval(a, b, c)
		if co != co1 {
			t.Errorf("AMA3 carry(%d,%d,%d) = %d, want AMA1 carry %d", a, b, c, co, co1)
		}
		if s != 1-co {
			t.Errorf("AMA3 sum(%d,%d,%d) = %d, want NOT carry %d", a, b, c, s, 1-co)
		}
	}
}

func TestApproxAdd4IsInverterOnA(t *testing.T) {
	for i := uint8(0); i < 8; i++ {
		a, b, c := i>>2&1, i>>1&1, i&1
		s, co := ApproxAdd4.Eval(a, b, c)
		if co != a || s != 1-a {
			t.Errorf("AMA4(%d,%d,%d) = (sum %d, cout %d), want (NOT A, A)", a, b, c, s, co)
		}
	}
}

func TestApproxAdd5IsPureWiring(t *testing.T) {
	for i := uint8(0); i < 8; i++ {
		a, b, c := i>>2&1, i>>1&1, i&1
		s, co := ApproxAdd5.Eval(a, b, c)
		if s != b || co != a {
			t.Errorf("AMA5(%d,%d,%d) = (sum %d, cout %d), want (B, A)", a, b, c, s, co)
		}
	}
}

// ErrorPatterns returns the number of the 8 input patterns for which the
// cell's Sum or Cout (or both) differ from the exact full adder.
func (k AdderKind) ErrorPatterns() int {
	n := 0
	acc := &adderTruth[AccAdd]
	t := &adderTruth[k]
	for i := 0; i < 8; i++ {
		if t.sum[i] != acc.sum[i] || t.cout[i] != acc.cout[i] {
			n++
		}
	}
	return n
}

func TestAdderErrorPatternCounts(t *testing.T) {
	want := map[AdderKind]int{
		AccAdd:     0,
		ApproxAdd1: 1,
		ApproxAdd2: 2,
		ApproxAdd3: 3,
		ApproxAdd4: 4,
		ApproxAdd5: 4,
	}
	for k, n := range want {
		if got := k.ErrorPatterns(); got != n {
			t.Errorf("%v.ErrorPatterns() = %d, want %d", k, got, n)
		}
	}
}

func TestAdderCharacteristicsMatchTable1(t *testing.T) {
	cases := []struct {
		kind AdderKind
		want Characteristics
	}{
		{AccAdd, Characteristics{10.08, 0.18, 2.27, 0.409}},
		{ApproxAdd1, Characteristics{8.28, 0.11, 1.34, 0.147}},
		{ApproxAdd2, Characteristics{3.96, 0.08, 0.61, 0.049}},
		{ApproxAdd3, Characteristics{3.60, 0.06, 0.41, 0.025}},
		{ApproxAdd4, Characteristics{3.24, 0.06, 0.33, 0.020}},
		{ApproxAdd5, Characteristics{0, 0, 0, 0}},
	}
	for _, c := range cases {
		if got := c.kind.Characteristics(); got != c.want {
			t.Errorf("%v.Characteristics() = %+v, want %+v", c.kind, got, c.want)
		}
	}
}

func TestAdderEnergyIsPowerTimesDelay(t *testing.T) {
	// The adder rows of Table 1 satisfy E = P*D; this invariant underpins
	// the block-level energy model in internal/synth.
	for _, k := range AdderKinds {
		ch := k.Characteristics()
		if diff := ch.Energy - ch.Power*ch.Delay; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("%v: energy %.4f != power*delay %.4f", k, ch.Energy, ch.Power*ch.Delay)
		}
	}
}

func TestAdderEnergyOrderingIsDescending(t *testing.T) {
	// AdderKinds must be sorted by descending energy: the design-generation
	// methodology iterates the library in this order (paper §4.1).
	for i := 1; i < len(AdderKinds); i++ {
		prev := AdderKinds[i-1].Characteristics().Energy
		cur := AdderKinds[i].Characteristics().Energy
		if cur > prev {
			t.Errorf("energy ordering violated at %v: %.4f > %.4f", AdderKinds[i], cur, prev)
		}
	}
}

func TestAdderKindStringRoundTrip(t *testing.T) {
	for _, k := range AdderKinds {
		got, err := ParseAdderKind(k.String())
		if err != nil {
			t.Fatalf("ParseAdderKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	if _, err := ParseAdderKind("bogus"); err == nil {
		t.Error("ParseAdderKind(bogus) succeeded, want error")
	}
}

func TestAdderKindValid(t *testing.T) {
	for _, k := range AdderKinds {
		if !k.Valid() {
			t.Errorf("%v.Valid() = false", k)
		}
	}
	if AdderKind(NumAdderKinds).Valid() {
		t.Error("out-of-range kind reported valid")
	}
}
