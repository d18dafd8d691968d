package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/oracle"
)

// fillOperands are the operand sequences of the on-demand fill tests.
// Magnitudes grow and shrink across fillStep boundaries, and the table
// edges appear: 0, ±255, ±256, 32,767 and -32,768, operands past 16 bits
// (their index wraps) and math.MinInt64 (whose magnitude overflows
// int64). Every sequence starts on fresh tables, so its first operand
// alone decides the first fill. The first sequence holds every edge.
var fillOperands = [][]int64{
	{0, 1, -1, 255, -255, 256, -256, 257, 100, -511, 512, 3000, -200, 32767, -32767, -32768, 70000, -70000, math.MinInt64, math.MaxInt64},
	{math.MinInt64, 7, -7},
	{-32768, 0, 300, -301},
	{32767, -32767, 12, -32768},
	{70000, -1, 1},
	{-256, 256, -255, 255, 0, -1000, 999, -20000, 20000, -3},
	{511, -300, 0, 1<<16 - 1, -(1 << 16), 1 << 20},
}

// raceBuild is set in race-detector builds (race_test.go). The
// single-goroutine enumeration tests sample their spaces there, as under
// -short: the detector instruments their fills for nothing.
var raceBuild bool

// wrapped interprets x the way a Width-bit table index does.
func wrapped(x int64, width int) int64 { return arith.ToSigned(uint64(x)&mask(width), width) }

// fillTableCase is one full table class and tier the fill test reads.
type fillTableCase struct {
	name  string
	spec  arith.Multiplier
	coeff int64
	tab64 bool // the tier the bounds must choose
}

// fillChainCase is one chain shape whose tables the fill test reads
// through Chain.Run; tiers lists the table tiers it must hold.
type fillChainCase struct {
	name  string
	adder arith.Adder
	spec  arith.Multiplier
	ops   []ChainOp
	tiers []string
}

// chainTiers names the on-demand table tiers a chain reads.
func chainTiers(c *Chain) map[string]bool {
	got := map[string]bool{}
	for _, op := range c.ops {
		switch {
		case op.proj.u16 != nil:
			got["proj16"] = true
		case op.proj.u32 != nil:
			got["proj32"] = true
		case op.tab != nil && op.tab.tab32 != nil:
			got["raw32"] = true
		case op.tab != nil && op.tab.tab64 != nil:
			got["raw64"] = true
		}
	}
	return got
}

// fillChainCases returns the chain shapes the fill tests run: an AMA5
// chain that reads uint16 and uint32 projections (the 14-tap shape
// through the sliding window), and generic chains that read int32 (AMA4)
// and int64 (AMA1) raw tables.
func fillChainCases() []fillChainCase {
	hpf := make([]ChainOp, 14)
	for i := range hpf {
		hpf[i] = ChainOp{Coeff: 1, Lag: i, Sub: true}
	}
	hpf[6] = ChainOp{Coeff: 31, Lag: 6}
	hpf[12] = ChainOp{Coeff: 2, Lag: 12}
	mixed := []ChainOp{{Coeff: 3, Lag: 0}, {Coeff: 5, Lag: 1, Sub: true}, {Coeff: 2, Lag: 3}, {Coeff: 1, Lag: 4, Sub: true}}
	return []fillChainCase{
		{"ama5-k16", arith.Adder{Width: 32, ApproxLSBs: 16, Kind: approx.ApproxAdd5},
			arith.Multiplier{Width: 16, ApproxLSBs: 16, Mult: approx.AppMultV1, Add: approx.ApproxAdd5},
			hpf, []string{"proj16", "proj32", "raw32"}},
		{"ama4-k8", arith.Adder{Width: 32, ApproxLSBs: 8, Kind: approx.ApproxAdd4},
			arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV2, Add: approx.ApproxAdd4},
			mixed, []string{"raw32"}},
		{"ama1-k20", arith.Adder{Width: 32, ApproxLSBs: 9, Kind: approx.ApproxAdd1},
			arith.Multiplier{Width: 16, ApproxLSBs: 20, Mult: approx.AppMultV2, Add: approx.ApproxAdd1},
			mixed, []string{"raw64"}},
	}
}

// TestTablesFillOnDemand reads fresh full tables of every class and tier
// through every reading entry point — Mul, Square, SquareSlice and
// Chain.Run over a whole record, from a start index after a run that
// covered the history, and at one position at a time — over operand sequences that
// grow and shrink across fill steps. Every output must equal the full
// enumeration: the reference MulSigned of the wrapped operand, and for
// chains the bit-serial AddSigned fold of those products, which is what
// every projection term sums to. A Width-2 leaf root has no const-mul
// table, which must be refused; its square table fills through the plan
// walk instead of a decomposition.
// Under -short and in race builds the tests read the first three
// sequences.
// It runs as the subtest kernels=true, the name it kept from when a
// bit-serial mode ran it a second time as kernels=false.
func TestTablesFillOnDemand(t *testing.T) { t.Run("kernels=true", tablesFillOnDemand) }

func tablesFillOnDemand(t *testing.T) {
	tables := []fillTableCase{
		{"int32", arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd4}, -6, false},
		{"int32-ama5", arith.Multiplier{Width: 16, ApproxLSBs: 12, Mult: approx.AppMultV2, Add: approx.ApproxAdd5}, 31, false},
		{"int64-coeff", arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd4}, -1 << 15, true},
		{"int64-k", arith.Multiplier{Width: 16, ApproxLSBs: 20, Mult: approx.AppMultV2, Add: approx.ApproxAdd3}, 3, true},
	}
	DropCaches()
	defer DropCaches()
	seqs := fillOperands
	if testing.Short() || raceBuild {
		seqs = fillOperands[:3]
	}
	squared := map[arith.Multiplier]bool{}
	for _, tc := range tables {
		ref := oracle.NewProducts(tc.spec)
		for si, seq := range seqs {
			tab, err := NewConstMulTable(tc.spec, tc.coeff)
			if err != nil {
				t.Fatal(err)
			}
			if tab.cov == nil || (tab.tab64 != nil) != tc.tab64 {
				t.Fatalf("%s: not a full table of the expected tier (int64 %v)", tc.name, tc.tab64)
			}
			for _, x := range seq {
				if got, want := tab.Mul(x), ref.Of(x, tc.coeff); got != want {
					t.Fatalf("%s seq %d: Mul(%d) = %d, enumeration %d", tc.name, si, x, got, want)
				}
			}
		}
		if !squared[tc.spec] {
			squared[tc.spec] = true
			checkSquareFills(t, tc.spec, seqs)
		}
	}
	leaf := arith.Multiplier{Width: 2, ApproxLSBs: 4, Mult: approx.AppMultV2, Add: approx.ApproxAdd5}
	if _, err := NewConstMulTable(leaf, -3); err == nil {
		t.Fatal("leaf root: a const-mul table of a plan without a composite root")
	}
	checkSquareFills(t, leaf, seqs)
	for _, cc := range fillChainCases() {
		checkChainFills(t, cc, seqs)
	}
}

// checkSquareFills reads fresh square tables (always int32) of spec over
// every sequence: Square per operand, and SquareSlice over the whole
// sequence and over growing two-operand chunks.
func checkSquareFills(t *testing.T, spec arith.Multiplier, seqs [][]int64) {
	t.Helper()
	fresh := func() *SquareTable {
		sq, err := NewSquareTable(spec)
		if err != nil {
			t.Fatal(err)
		}
		if sq.cov == nil {
			t.Fatalf("%v: not a full square table", spec)
		}
		return sq
	}
	want := func(x int64) int64 {
		w := wrapped(x, spec.Width)
		return oracle.MulSigned(spec, w, w)
	}
	for si, seq := range seqs {
		for _, chunk := range []int{2, len(seq)} {
			sq := fresh()
			dst := make([]int64, len(seq))
			for lo := 0; lo < len(seq); lo += chunk {
				hi := min(lo+chunk, len(seq))
				sq.SquareSlice(dst[lo:hi], seq[lo:hi], 2)
			}
			for i, x := range seq {
				if dst[i] != want(x)>>2 {
					t.Fatalf("%v seq %d chunk %d: SquareSlice[%d] (x=%d) = %d, enumeration %d", spec, si, chunk, i, x, dst[i], want(x)>>2)
				}
			}
		}
		sq := fresh()
		for _, x := range seq {
			if got := sq.Square(x); got != want(x) {
				t.Fatalf("%v seq %d: Square(%d) = %d, enumeration %d", spec, si, x, got, want(x))
			}
		}
	}
}

// checkChainFills runs one chain shape over every operand sequence, each
// run from fresh tables and after a cleared delay line, in the three ways
// a signal reaches a chain: whole, continued from a start index after a
// run over the history, and one position at a time.
func checkChainFills(t *testing.T, cc fillChainCase, seqs [][]int64) {
	t.Helper()
	ad, err := CompileAdder(cc.adder)
	if err != nil {
		t.Fatal(err)
	}
	const shift, outW = 3, 29
	fresh := func() *Chain {
		DropCaches()
		c, err := ad.NewChain(cc.spec, cc.ops)
		if err != nil {
			t.Fatal(err)
		}
		got := chainTiers(c)
		for _, tier := range cc.tiers {
			if !got[tier] {
				t.Fatalf("%s: chain holds tiers %v, want %s", cc.name, got, tier)
			}
		}
		for _, cv := range c.covs {
			if cv.bound.Load() != 0 {
				t.Fatalf("%s: a fresh table is already filled", cc.name)
			}
		}
		return c
	}
	for si, seq := range seqs {
		want := scalarFold(cc.adder, cc.spec, cc.ops, seq, shift, outW)
		check := func(how string, dst []int64) {
			t.Helper()
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("%s %s seq %d: Run[%d] = %d, scalar fold of the enumeration %d", cc.name, how, si, i, dst[i], want[i])
				}
			}
		}
		dst := make([]int64, len(seq))
		runFromZeros(fresh(), dst, seq, shift, outW)
		check("whole", dst)

		for _, h := range []int{1, len(seq) / 2} {
			c := fresh()
			pad := historyLen(c)
			padded := zeroPadded(seq, pad)
			c.Run(dst[:h], padded[:pad+h], pad, shift, outW)
			c.Run(dst[h:], padded, pad+h, shift, outW)
			check(fmt.Sprintf("history %d", h), dst)
		}

		c := fresh()
		pad := historyLen(c)
		padded := zeroPadded(seq, pad)
		for i := range seq {
			c.Run(dst[i:i+1], padded[:pad+i+1], pad+i, shift, outW)
		}
		check("per position", dst)
	}
}

// FuzzTableFill checks fuzzer-chosen operand sequences against the full
// enumeration through fresh tables: a const-mul and a square table read
// per operand, and the 14-tap AMA5 k=16 chain (uint16 and uint32
// projections, a raw table) run in blocks that continue from the
// operands before them, after a cleared delay line. The input draws the multiplier (Width 16, k=16,
// AppMultV1) and the coefficient: the first byte picks the block length,
// the next two an int16 coefficient c, which the const-mul table and the
// chain's tap at lag 6 multiply by, and the fourth the multiplier's adder
// kind — AMA5 or exact, whose table fills run the closed form, or AMA4
// or AMA2, whose fills call the adders. A coefficient of 256 or more in
// magnitude, -2^15 included, makes the fills' hh term non-zero. Each
// following 3-byte group is one operand: an int16 that the third byte
// shifts down (mode%8) or replaces with a value past 16 bits (mode 8-9)
// or math.MinInt64 (mode 10).
func FuzzTableFill(f *testing.F) {
	f.Add([]byte{3, 0xfa, 0xff, 0, 0xff, 0x00, 0, 0x00, 0x01, 0, 0x00, 0x80, 0, 0xff, 0x7f, 0, 0, 0, 10, 0x34, 0x12, 8})
	f.Add([]byte{1, 0x00, 0x80, 3, 0, 0, 10, 0xff, 0xff, 0, 0x00, 0x80, 0})
	f.Add([]byte{5, 0x2c, 0x01, 1, 0x10, 0x27, 4, 0xf0, 0xd8, 2, 0x01, 0x01, 9, 0xff, 0x00, 7})
	f.Add([]byte{2, 0xff, 0x7f, 2, 0x00, 0x80, 0, 0x39, 0x30, 1, 0xc7, 0xcf, 3})
	kinds := []approx.AdderKind{approx.ApproxAdd5, approx.ApproxAdd4, approx.AccAdd, approx.ApproxAdd2}
	cc := fillChainCases()[0]
	ad, err := CompileAdder(cc.adder)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		block := 1 + int(data[0])%16
		c := int64(int16(binary.LittleEndian.Uint16(data[1:])))
		spec := cc.spec
		spec.Add = kinds[data[3]%4]
		var seq []int64
		for g := data[4:]; len(g) >= 3 && len(seq) < 96; g = g[3:] {
			x := int64(int16(binary.LittleEndian.Uint16(g)))
			switch mode := g[2] % 16; {
			case mode < 8:
				x >>= mode
			case mode < 10:
				x += int64(mode-7) << 16
			case mode == 10:
				x = math.MinInt64
			}
			seq = append(seq, x)
		}
		ops := slices.Clone(cc.ops)
		ops[6].Coeff = c
		ref := oracle.NewProducts(spec)
		tab, err := NewConstMulTable(spec, c)
		if err != nil {
			t.Fatal(err)
		}
		sq, err := NewSquareTable(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range seq {
			if got, want := tab.Mul(x), ref.Of(x, c); got != want {
				t.Fatalf("%v c=%d: Mul(%d) = %d, enumeration %d", spec.Add, c, x, got, want)
			}
			w := wrapped(x, spec.Width)
			if got, want := sq.Square(x), oracle.MulSigned(spec, w, w); got != want {
				t.Fatalf("%v: Square(%d) = %d, enumeration %d", spec.Add, x, got, want)
			}
		}
		DropCaches()
		chain, err := ad.NewChain(spec, ops)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int64, len(seq))
		pad := historyLen(chain)
		padded := zeroPadded(seq, pad)
		for lo := 0; lo < len(seq); lo += block {
			hi := min(lo+block, len(seq))
			chain.Run(dst[lo:hi], padded[:pad+hi], pad+lo, 3, 29)
		}
		for i, want := range scalarFold(cc.adder, spec, ops, seq, 3, 29) {
			if dst[i] != want {
				t.Fatalf("%v c=%d block %d: Run[%d] = %d, scalar fold of the enumeration %d", spec.Add, c, block, i, dst[i], want)
			}
		}
	})
}
