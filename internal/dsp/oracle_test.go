package dsp

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// oracleFIR is the per-tap accumulation loop of the FIR datapath over
// the bit-serial models: each non-zero tap's product through
// arith.Multiplier.MulSigned and the products folded tap by tap through
// arith.Adder.AddSigned/SubSigned over a doubled delay line. It is
// frozen here as the reference the chain-based paths are compared
// against; do not optimize it.
type oracleFIR struct {
	ops      []oracleOp
	mult     arith.Multiplier
	adder    arith.Adder
	outShift int
	hist     []int64
	n        int
	pos      int
}

type oracleOp struct {
	mag int64 // coefficient magnitude
	lag int   // delay-line age of the tap's sample
	sub bool  // negative coefficient: subtract the product magnitude
}

func newOracleFIR(coeffs []int64, outShift int, cfg ArithConfig) *oracleFIR {
	f := &oracleFIR{
		mult:     arith.Multiplier{Width: SampleWidth, ApproxLSBs: cfg.LSBs, Mult: cfg.Mul, Add: cfg.Add},
		adder:    arith.Adder{Width: AccWidth, ApproxLSBs: cfg.LSBs, Kind: cfg.Add},
		outShift: outShift,
		hist:     make([]int64, 2*len(coeffs)),
		n:        len(coeffs),
	}
	for i, c := range coeffs {
		if c != 0 {
			f.ops = append(f.ops, oracleOp{mag: max(c, -c), lag: i, sub: c < 0})
		}
	}
	return f
}

// product is one tap's product: the delayed sample enters the multiplier
// as a SampleWidth-bit word.
func (f *oracleFIR) product(op *oracleOp, base int) int64 {
	x := arith.ToSigned(uint64(f.hist[base-op.lag]), SampleWidth)
	return f.mult.MulSigned(x, op.mag)
}

func (f *oracleFIR) Reset() {
	for i := range f.hist {
		f.hist[i] = 0
	}
	f.pos = 0
}

func (f *oracleFIR) Process(x int64) int64 {
	n := f.n
	f.hist[f.pos] = x
	f.hist[f.pos+n] = x
	base := f.pos + n
	f.pos++
	if f.pos == n {
		f.pos = 0
	}
	var acc int64
	if ops := f.ops; len(ops) > 0 {
		adder := f.adder
		p := f.product(&ops[0], base)
		if ops[0].sub {
			acc = adder.SubSigned(0, p)
		} else {
			acc = p
		}
		for i := 1; i < len(ops); i++ {
			op := &ops[i]
			p := f.product(op, base)
			if op.sub {
				acc = adder.SubSigned(acc, p)
			} else {
				acc = adder.AddSigned(acc, p)
			}
		}
	}
	return arith.ToSigned(uint64(acc)>>uint(f.outShift), SampleWidth)
}

// oracleShapes are the tap shapes the FIR differential crosses: the three
// Pan-Tompkins filters, a single tap, interior and leading zero
// coefficients, and an all-zero filter (an empty chain).
func oracleShapes() map[string][]int64 {
	hpf := make([]int64, 32)
	for i := range hpf {
		hpf[i] = -1
	}
	hpf[16] = 31
	return map[string][]int64{
		"lpf":      {1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1},
		"hpf":      hpf,
		"der":      {2, 1, 0, -1, -2},
		"one-tap":  {-3},
		"zeros":    {0, 4, 0, -1},
		"all-zero": {0},
	}
}

// TestFIRMatchesOracle is the seeded differential of every FIR entry
// point against the frozen per-tap oracle: random interleavings of
// Process, Block, FilterInto restarts, Reset and Clone (see driveFIR)
// drive one filter, while the oracle is fed the same samples one at a
// time (reset at every restart). It crosses adder kinds {exact,
// AMA1-AMA5}, approximated LSBs {0, 2, 8, 12, 16} and the tap shapes
// above. The exact kind runs with the exact multiplier, so its chains
// fuse to the MAC strategy, and with AppMultV1, whose approximate
// products (k > 0) keep it on the generic chain; HPF-shaped AMA5 chains
// take the sliding strategy.
// It runs as the subtest kernels=true, the name it kept from when a
// bit-serial mode ran it a second time as kernels=false.
func TestFIRMatchesOracle(t *testing.T) { t.Run("kernels=true", firMatchesOracle) }

func firMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, kind := range adderKinds {
		mults := []approx.MultKind{firMult(kind)}
		if kind == approx.AccAdd {
			mults = append(mults, approx.AppMultV1)
		}
		for _, mul := range mults {
			for _, k := range []int{0, 2, 8, 12, 16} {
				cfg := ArithConfig{LSBs: k, Add: kind, Mul: mul}
				for name, coeffs := range oracleShapes() {
					driveFIR(t, fmt.Sprintf("%v %s", cfg, name), rng.Uint64, 24, coeffs, 3, cfg)
				}
			}
		}
	}
}

// firMult is the multiplier kind the FIR differentials pair with an
// adder kind: exact with the exact adder, so that its chains fuse,
// AppMultV1 with the others.
func firMult(kind approx.AdderKind) approx.MultKind {
	if kind == approx.AccAdd {
		return approx.AccMult
	}
	return approx.AppMultV1
}

// FuzzFIRMatchesOracle runs the FIR differential on fuzzer-chosen
// configurations and call sequences: the first four bytes pick the adder
// kind (its multiplier as in firMult), the approximated LSBs (0-16), the
// tap shape (oracleShapes by name) and the output shift (byte 3 modulo
// 8); the rest feed driveFIR's choices 8 bytes at a time (zero past the
// end). Seeds replay design B9's LPF (k=10), HPF (k=12) and DER (k=2),
// AMA5 and AppMultV1 at the pipeline's output shifts, as a stream of
// 24-sample serve blocks.
func FuzzFIRMatchesOracle(f *testing.F) {
	shapes := oracleShapes()
	names := slices.Sorted(maps.Keys(shapes))
	rng := rand.New(rand.NewSource(1))
	appendWords := func(data []byte, ws ...uint64) []byte {
		for _, w := range ws {
			data = binary.LittleEndian.AppendUint64(data, w)
		}
		return data
	}
	for _, seed := range []struct {
		kind, k int
		shape   string
		shift   int
	}{{5, 10, "lpf", 5}, {5, 12, "hpf", 5}, {5, 2, "der", 3}} {
		data := []byte{byte(seed.kind), byte(seed.k), byte(slices.Index(names, seed.shape)), byte(seed.shift)}
		for range 6 {
			// A Block step (op 2), length choice 2: 1+23 samples.
			data = appendWords(data, 2, 2, 23)
			for range 24 {
				data = appendWords(data, rng.Uint64()>>1)
			}
		}
		f.Add(data)
	}
	for i, seed := range [][4]byte{{0, 0, 2, 5}, {1, 8, 3, 3}, {4, 16, 1, 3}, {2, 12, 5, 0}} {
		data := seed[:]
		for j := 0; j < 48+i; j++ {
			data = appendWords(data, rng.Uint64())
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		kind := adderKinds[int(data[0])%len(adderKinds)]
		cfg := ArithConfig{LSBs: int(data[1]) % 17, Add: kind, Mul: firMult(kind)}
		name := names[int(data[2])%len(names)]
		words := data[4:]
		next := func() uint64 {
			var b [8]byte
			words = words[copy(b[:], words):]
			return binary.LittleEndian.Uint64(b[:])
		}
		steps := min(1+len(words)/16, 48)
		driveFIR(t, fmt.Sprintf("%v %s", cfg, name), next, steps, shapes[name], int(data[3])%8, cfg)
	})
}

// driveFIR builds a filter and its oracle and runs steps entry-point
// calls against it, drawing every choice from next: Process, Block,
// FilterInto restarts, Reset, and Clone (the clone carries on from a
// cleared delay line). Block lengths are 0, 1, anything from 1 to 24
// past the tap count, exactly the window's free room (which must then be
// full), and more than the window holds past the history, which must
// grow it to the history plus the block, followed at once by an empty
// block.
func driveFIR(t *testing.T, label string, next func() uint64, steps int, coeffs []int64, outShift int, cfg ArithConfig) {
	t.Helper()
	f, err := NewFIR(coeffs, outShift, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracleFIR(coeffs, outShift, cfg)
	intn := func(n int) int { return int(next() % uint64(n)) }
	samples := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(int16(next()))
		}
		return xs
	}
	pos := 0
	check := func(op string, got []int64, in []int64) {
		t.Helper()
		for i, x := range in {
			if want := o.Process(x); got[i] != want {
				t.Fatalf("%s: %s sample %d (stream position %d): got %d, oracle %d",
					label, op, i, pos+i, got[i], want)
			}
		}
		pos += len(in)
	}
	block := func(op string, n int) {
		t.Helper()
		xs := samples(n)
		dst := make([]int64, n)
		f.Block(dst, xs)
		check(op, dst, xs)
	}
	for step := 0; step < steps; step++ {
		switch op := intn(8); {
		case op < 2:
			x := samples(1)[0]
			check("Process", []int64{f.Process(x)}, []int64{x})
		case op < 5:
			switch intn(5) {
			case 0, 1:
				block("Block", intn(2))
			case 2:
				block("Block", 1+intn(f.n+24))
			case 3:
				block("Block filling the window", len(f.win)-f.fill)
				if f.fill != len(f.win) {
					t.Fatalf("%s: a block of the window's free room left %d of %d filled", label, f.fill, len(f.win))
				}
			default:
				n := len(f.win) - f.n + 1 + intn(24)
				block("Block growing the window", n)
				if want := f.n + n; len(f.win) != want {
					t.Fatalf("%s: a %d-sample block grew the window to %d, want %d", label, n, len(f.win), want)
				}
				block("Block after growth", 0)
			}
		case op == 5:
			xs := samples(intn(60))
			o.Reset()
			pos = 0
			check("FilterInto", f.FilterInto(nil, xs), xs)
		case op == 6:
			f.Reset()
			o.Reset()
			pos = 0
		default:
			f = f.Clone()
			o.Reset()
			pos = 0
		}
	}
}

// oracleMovingSum is the per-sample window fold of the integrator over
// the bit-serial adder model: each sample overwrites the ring's next
// slot, and the ring's slots chain through arith.Adder.AddSigned in slot
// order, slot 0 opening the chain. It is frozen here as the reference
// the window strategies are compared against; do not optimize it.
type oracleMovingSum struct {
	adder    arith.Adder
	outShift int
	hist     []int64
	pos      int
}

func newOracleMovingSum(window, outShift int, cfg ArithConfig) *oracleMovingSum {
	adder := arith.Adder{Width: AccWidth, ApproxLSBs: cfg.LSBs, Kind: cfg.Add}
	return &oracleMovingSum{adder: adder, outShift: outShift, hist: make([]int64, window)}
}

func (m *oracleMovingSum) Reset() {
	for i := range m.hist {
		m.hist[i] = 0
	}
	m.pos = 0
}

func (m *oracleMovingSum) Process(x int64) int64 {
	m.hist[m.pos] = x
	m.pos++
	if m.pos == len(m.hist) {
		m.pos = 0
	}
	acc := m.hist[0]
	for _, v := range m.hist[1:] {
		acc = m.adder.AddSigned(acc, v)
	}
	return arith.ToSigned(uint64(acc)>>uint(m.outShift), AccWidth-m.outShift)
}

// adderKinds are the adder kinds the FIR and integrator differentials
// cross: exact, and every approximate kind — in the integrator, exact
// and AMA5 slide and the others re-fold.
var adderKinds = []approx.AdderKind{approx.AccAdd, approx.ApproxAdd1, approx.ApproxAdd2,
	approx.ApproxAdd3, approx.ApproxAdd4, approx.ApproxAdd5}

// TestMovingSumMatchesOracle is the seeded differential of every
// integrator entry point against the frozen per-sample fold: random
// interleavings of Process, ProcessBlock, FilterInto restarts, Reset and
// Clone (see driveMovingSum), crossing adder kinds {exact, AMA1-AMA5} x
// approximated LSBs {0, 1, 2, 8, 12, 16, 31, 32} x windows {2, 3, 32}.
// It runs as the subtest kernels=true, the name it kept from when a
// bit-serial mode ran it a second time as kernels=false.
func TestMovingSumMatchesOracle(t *testing.T) { t.Run("kernels=true", movingSumMatchesOracle) }

func movingSumMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, kind := range adderKinds {
		for _, k := range []int{0, 1, 2, 8, 12, 16, 31, 32} {
			for _, window := range []int{2, 3, 32} {
				cfg := ArithConfig{LSBs: k, Add: kind}
				outShift := rng.Intn(8)
				label := fmt.Sprintf("%v window %d shift %d", cfg, window, outShift)
				driveMovingSum(t, label, rng.Uint64, 32, cfg, window, outShift)
			}
		}
	}
}

// FuzzMovingSum runs the integrator differential on fuzzer-chosen
// configurations and call sequences: the first four bytes pick the adder
// kind, the approximated LSBs, the window and the output shift (byte 3
// modulo 8); the rest feed driveMovingSum's choices 8 bytes at a time
// (zero past the end).
func FuzzMovingSum(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i, seed := range [][3]byte{{0, 0, 30}, {5, 16, 30}, {4, 16, 30}, {1, 8, 1}, {5, 32, 0}, {4, 31, 1}} {
		data := append(seed[:], byte(i))
		for j := 0; j < 48; j++ {
			data = binary.LittleEndian.AppendUint64(data, rng.Uint64())
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := ArithConfig{LSBs: int(data[1]) % (AccWidth + 1), Add: adderKinds[int(data[0])%len(adderKinds)]}
		window := 2 + int(data[2])%40
		words := data[4:]
		next := func() uint64 {
			var b [8]byte
			words = words[copy(b[:], words):]
			return binary.LittleEndian.Uint64(b[:])
		}
		steps := min(1+len(words)/16, 48)
		driveMovingSum(t, fmt.Sprintf("%v window %d", cfg, window), next, steps, cfg, window, int(data[3])%8)
	})
}

// driveMovingSum builds an integrator and its oracle and runs steps
// entry-point calls against it, drawing every choice from next:
// Process, ProcessBlock (lengths 0, 1 and past the window), FilterInto
// restarts, Reset, and Clone (the clone carries on from a cleared
// window). Samples mix the squarer's output range, the full int32 range,
// values with bit k-1 set and arbitrary 64-bit words.
func driveMovingSum(t *testing.T, label string, next func() uint64, steps int, cfg ArithConfig, window, outShift int) {
	t.Helper()
	m, err := NewMovingSum(window, outShift, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracleMovingSum(window, outShift, cfg)
	intn := func(n int) int { return int(next() % uint64(n)) }
	sample := func() int64 {
		v := next()
		switch intn(4) {
		case 0:
			return int64(v % (1<<30 + 1))
		case 1:
			return int64(int32(v))
		case 2:
			if cfg.LSBs > 0 {
				return int64(int32(v)) | 1<<(cfg.LSBs-1)
			}
			return int64(int32(v))
		default:
			return int64(v)
		}
	}
	samples := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = sample()
		}
		return xs
	}
	pos := 0
	check := func(op string, got, in []int64) {
		t.Helper()
		for i, x := range in {
			if want := o.Process(x); got[i] != want {
				t.Fatalf("%s: %s sample %d (stream position %d): got %d, oracle %d",
					label, op, i, pos+i, got[i], want)
			}
		}
		pos += len(in)
	}
	for step := 0; step < steps; step++ {
		switch op := intn(8); {
		case op < 2:
			x := sample()
			check("Process", []int64{m.Process(x)}, []int64{x})
		case op < 5:
			xs := samples([3]int{0, 1, window + 1 + intn(24)}[intn(3)])
			dst := make([]int64, len(xs))
			m.ProcessBlock(dst, xs)
			check("ProcessBlock", dst, xs)
		case op == 5:
			xs := samples(intn(3 * window))
			o.Reset()
			pos = 0
			check("FilterInto", m.FilterInto(nil, xs), xs)
		case op == 6:
			m.Reset()
			o.Reset()
			pos = 0
		default:
			m = m.Clone()
			o.Reset()
			pos = 0
		}
	}
}
