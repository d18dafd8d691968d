package oracle

import "github.com/xbiosip/xbiosip/internal/arith"

// Products is the product source of a tap-chain fold: the signed product
// of an operand, sign-extended from its low Width bits, with a
// coefficient through the multiplier model m. Products are memoized per
// (coefficient, operand): a product is a pure function of the two, and a
// FIR asks for the same one at many taps (the HPF for its unit tap 31
// times per sample). A Products is not safe for concurrent use.
type Products struct {
	m    arith.Multiplier
	memo map[[2]int64]int64
}

// NewProducts returns the product source of m.
func NewProducts(m arith.Multiplier) *Products {
	return &Products{m: m, memo: map[[2]int64]int64{}}
}

// Of returns MulSigned of x, sign-extended from Width bits, with c.
func (p *Products) Of(x, c int64) int64 {
	x = arith.ToSigned(uint64(x), p.m.Width)
	key := [2]int64{c, x}
	v, ok := p.memo[key]
	if !ok {
		v = MulSigned(p.m, x, c)
		p.memo[key] = v
	}
	return v
}

// Tap is one tap of a tap-chain fold: the coefficient its product
// multiplies by, the delay-line age of the sample it consumes, and
// whether the product is subtracted through the adder datapath.
type Tap struct {
	Coeff int64
	Lag   int
	Sub   bool
}

// Taps lowers signed FIR coefficients to taps the way a FIR stage does:
// zero coefficients drop, and a negative one subtracts the product of its
// magnitude.
func Taps(coeffs []int64) []Tap {
	var taps []Tap
	for lag, c := range coeffs {
		switch {
		case c > 0:
			taps = append(taps, Tap{Coeff: c, Lag: lag})
		case c < 0:
			taps = append(taps, Tap{Coeff: -c, Lag: lag, Sub: true})
		}
	}
	return taps
}

// FIRAt folds the taps of position i of the signal xs, whose samples
// before xs[0] are zeros (a cleared delay line): each tap's product of
// xs[i-Lag] with its coefficient, the first tap's copied into the
// accumulator (or subtracted from zero through ad), every later one's
// added or subtracted through the adder model; the accumulator is then
// shifted right by shift and sliced to outWidth bits.
func FIRAt(ad arith.Adder, p *Products, taps []Tap, xs []int64, i int, shift uint, outWidth int) int64 {
	var acc int64
	for t, tap := range taps {
		var x int64
		if j := i - tap.Lag; j >= 0 {
			x = xs[j]
		}
		v := p.Of(x, tap.Coeff)
		switch {
		case t == 0 && tap.Sub:
			acc = SubSigned(ad, 0, v)
		case t == 0:
			acc = v
		case tap.Sub:
			acc = SubSigned(ad, acc, v)
		default:
			acc = AddSigned(ad, acc, v)
		}
	}
	return arith.ToSigned(uint64(acc)>>shift, outWidth)
}

// FIR folds every position of xs from a cleared delay line (see FIRAt).
func FIR(ad arith.Adder, p *Products, taps []Tap, xs []int64, shift uint, outWidth int) []int64 {
	out := make([]int64, len(xs))
	for i := range xs {
		out[i] = FIRAt(ad, p, taps, xs, i, shift, outWidth)
	}
	return out
}

// WindowAt folds the integrator's window of position i of the signal xs,
// started from a cleared window: sample j sits in ring slot j mod window,
// each overwriting the slot's last, and the slots chain through
// AddSigned in slot order, slot 0 opening the chain. The sum is
// sign-extended from the adder's width (a one-slot window adds nothing),
// shifted right by shift and sliced to outWidth bits.
func WindowAt(ad arith.Adder, xs []int64, i, window int, shift uint, outWidth int) int64 {
	// slot returns the sample slot s holds at position i: the last j <= i
	// with j mod window == s, or zero before the first.
	slot := func(s int) int64 {
		if j := i - (i-s+window)%window; j >= 0 {
			return xs[j]
		}
		return 0
	}
	acc := slot(0)
	for s := 1; s < window; s++ {
		acc = AddSigned(ad, acc, slot(s))
	}
	acc = arith.ToSigned(uint64(acc), ad.Width)
	return arith.ToSigned(uint64(acc)>>shift, outWidth)
}

// MovingSum folds every position of xs from a cleared window (see
// WindowAt).
func MovingSum(ad arith.Adder, xs []int64, window int, shift uint, outWidth int) []int64 {
	out := make([]int64, len(xs))
	for i := range xs {
		out[i] = WindowAt(ad, xs, i, window, shift, outWidth)
	}
	return out
}

// Square squares every sample of xs, sign-extended from Width bits,
// through the multiplier model m and shifts the square right by shift.
func Square(m arith.Multiplier, xs []int64, shift uint) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		x = arith.ToSigned(uint64(x), m.Width)
		out[i] = MulSigned(m, x, x) >> shift
	}
	return out
}
