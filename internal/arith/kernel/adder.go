package kernel

import (
	"math/bits"
	"sync"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// addFunc is one compiled AddCarry implementation. Operands are masked to
// the adder width by the function itself, exactly like the reference.
type addFunc func(a, b uint64, cin uint8) (sum uint64, cout uint8)

// Adder is a compiled word-parallel evaluation plan for one arith.Adder
// configuration. It is bit-identical to the bit-serial model of package
// oracle (AddCarry, AddSigned, SubSigned), which only tests import; see the package documentation for the closed
// forms. Its one compiled addFunc is the scalar adder that plan walks,
// table fills, the generic chain and the re-fold window add through; the
// AMA5 and exact strategies inline their closed forms instead. The zero
// value is not useful — use CompileAdder or CachedAdder.
type Adder struct {
	spec   arith.Adder
	fn     addFunc
	window windowKind // the moving-window strategy Slide runs (window.go)
	// exact marks plans that reduce to native addition (chain
	// compilation consults it before fusing to MAC).
	exact bool
}

// CompileAdder validates spec and builds its evaluation plan.
func CompileAdder(spec arith.Adder) (*Adder, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Adder{
		spec:   spec,
		fn:     compileAddFunc(spec),
		window: compileWindow(spec),
		exact:  effectiveLSBs(spec) == 0,
	}, nil
}

// Add returns the Width-bit sum of a and b (carry-in 0, carry-out dropped).
func (ad *Adder) Add(a, b uint64) uint64 {
	s, _ := ad.fn(a, b, 0)
	return s
}

// AddSigned adds two signed values through the two's-complement datapath,
// like the reference: the Width-bit sum, sign-extended.
func (ad *Adder) AddSigned(a, b int64) int64 {
	s, _ := ad.fn(uint64(a), uint64(b), 0)
	return arith.ToSigned(s, ad.spec.Width)
}

// SubSigned subtracts b from a through the two's-complement datapath,
// like the reference: a + NOT b + 1, sign-extended.
func (ad *Adder) SubSigned(a, b int64) int64 {
	s, _ := ad.fn(uint64(a), ^uint64(b)&mask(ad.spec.Width), 1)
	return arith.ToSigned(s, ad.spec.Width)
}

// effectiveLSBs mirrors the reference: the accurate cell kind makes the
// approximated-LSB count a dead parameter.
func effectiveLSBs(spec arith.Adder) int {
	if spec.Kind == approx.AccAdd {
		return 0
	}
	if spec.ApproxLSBs > spec.Width {
		return spec.Width
	}
	return spec.ApproxLSBs
}

// compileAddFunc picks the evaluation strategy for spec.
func compileAddFunc(spec arith.Adder) addFunc {
	k := effectiveLSBs(spec)
	if k == 0 {
		return nativeAdd(spec.Width)
	}
	switch spec.Kind {
	case approx.ApproxAdd2:
		return ama2Add(spec.Width, k)
	case approx.ApproxAdd4:
		return wiringAdd(spec.Width, k, true)
	case approx.ApproxAdd5:
		return wiringAdd(spec.Width, k, false)
	default:
		return chunkAdd(spec.Width, k, spec.Kind)
	}
}

// nativeAdd is the fully exact adder: one machine add. The carry out is bit
// w of the extended sum, which for w = 64 wraps to zero exactly like the
// reference model's upper-slice formula.
func nativeAdd(w int) addFunc {
	m := mask(w)
	return func(a, b uint64, cin uint8) (uint64, uint8) {
		hi := (a & m) + (b & m) + uint64(cin&1)
		return hi & m, uint8(hi>>w) & 1
	}
}

// wiringAdd covers the pure-wiring cells: AMA5 (Sum = B, Cout = A) and,
// with invertA, AMA4 (Sum = NOT A, Cout = A). The region's carries do not
// depend on the incoming carry at all, so the carry entering the exact
// upper slice is bit k-1 of A. Requires k >= 1.
func wiringAdd(w, k int, invertA bool) addFunc {
	mW := mask(w)
	mk := mask(k)
	return func(a, b uint64, cin uint8) (uint64, uint8) {
		a &= mW
		b &= mW
		low := b & mk
		if invertA {
			low = ^a & mk
		}
		c := (a >> (k - 1)) & 1
		hi := (a >> k) + (b >> k) + c
		return (low | hi<<k) & mW, uint8(hi>>(w-k)) & 1
	}
}

// ama2Add covers AMA2, whose Cout table is the exact majority function:
// every chain carry equals the native-addition carry, so with x = a+b+cin
// the carry-in vector is a^b^x and the carry-out of cell i is bit i+1 of it
// (the final carry for the top cell). Sum = NOT Cout in the approximate
// region; the exact upper bits come from x directly. Requires k >= 1.
func ama2Add(w, k int) addFunc {
	mW := mask(w)
	mk := mask(k)
	return func(a, b uint64, cin uint8) (uint64, uint8) {
		a &= mW
		b &= mW
		x, cf := bits.Add64(a, b, uint64(cin&1))
		if w < 64 {
			cf = (x >> w) & 1
		}
		carryIns := a ^ b ^ x
		couts := (carryIns >> 1) | cf<<(w-1)
		sum := (x &^ mk) | (^couts & mk)
		return sum & mW, uint8(cf)
	}
}

// chunkLUTs holds the lazily built byte-wide chunk tables, one per cell
// kind that needs them: AMA1/AMA3, whose addFunc reads one, and the
// kinds the generic chain adds through (AMA1-AMA4). Entry layout: index
// cin<<16 | aByte<<8 | bByte; bits 0..7 of the uint32 value are the
// chunk's sum bits and bit 8+j is the carry out of cell j.
var chunkLUTs [approx.NumAdderKinds]struct {
	once sync.Once
	tab  []uint32
}

func chunkLUT(kind approx.AdderKind) []uint32 {
	e := &chunkLUTs[kind]
	e.once.Do(func() {
		tab := make([]uint32, 1<<17)
		for cin := uint32(0); cin < 2; cin++ {
			for a := uint32(0); a < 256; a++ {
				for b := uint32(0); b < 256; b++ {
					c := uint8(cin)
					var sum, couts uint32
					for j := 0; j < 8; j++ {
						s, co := kind.Eval(uint8(a>>j)&1, uint8(b>>j)&1, c)
						sum |= uint32(s) << j
						couts |= uint32(co) << j
						c = co
					}
					tab[cin<<16|a<<8|b] = couts<<8 | sum
				}
			}
		}
		e.tab = tab
	})
	return e.tab
}

// chunkAdd evaluates the approximate region 8 cells per table lookup. It is
// exact for every cell kind (the table is built from the cell truth
// tables); the dedicated closed forms above are only faster. Requires
// k >= 1.
func chunkAdd(w, k int, kind approx.AdderKind) addFunc {
	mW := mask(w)
	lut := chunkLUT(kind)
	return func(a, b uint64, cin uint8) (uint64, uint8) {
		a &= mW
		b &= mW
		c := uint64(cin & 1)
		var sum uint64
		i := 0
		for ; i+8 <= k; i += 8 {
			e := uint64(lut[c<<16|((a>>i)&0xff)<<8|(b>>i)&0xff])
			sum |= (e & 0xff) << i
			c = (e >> 15) & 1
		}
		if r := k - i; r > 0 {
			e := uint64(lut[c<<16|((a>>i)&0xff)<<8|(b>>i)&0xff])
			sum |= (e & (uint64(1)<<r - 1)) << i
			c = (e >> (7 + r)) & 1
		}
		hi := (a >> k) + (b >> k) + c
		return (sum | hi<<k) & mW, uint8(hi>>(w-k)) & 1
	}
}
