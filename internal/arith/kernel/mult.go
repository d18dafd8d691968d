package kernel

import (
	"fmt"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
)

// Multiplier is a compiled evaluation plan for one arith.Multiplier
// configuration: the recursion of the reference model frozen into a static
// tree whose accumulation nodes hold pre-compiled adder kernels, so
// evaluation performs zero allocations and exact subtrees collapse to a
// native multiply. Use CompileMultiplier or CachedMultiplier.
type Multiplier struct {
	spec     arith.Multiplier
	opMask   uint64
	prodMask uint64
	exact    bool
	root     *mulNode // nil when exact
}

// mulNode is one subtree of the plan: either a native multiply (the whole
// lane sits at or above k), an elementary 2x2 cell, or a composite node
// with four children and three pre-compiled accumulation adders.
type mulNode struct {
	exact    bool
	leaf     bool
	leafKind approx.MultKind

	w, h     int
	hMask    uint64
	prodMask uint64

	ll, hl, lh, hh *mulNode
	addMid, addLo  *Adder // hl+lh at width 2h+1; the two 2w-bit accumulations
}

// CompileMultiplier validates spec and builds its evaluation plan.
func CompileMultiplier(spec arith.Multiplier) (*Multiplier, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Multiplier{
		spec:     spec,
		opMask:   mask(spec.Width),
		prodMask: mask(2 * spec.Width),
	}
	if spec.ApproxLSBs == 0 || (spec.Mult == approx.AccMult && spec.Add == approx.AccAdd) {
		m.exact = true
		return m, nil
	}
	root, err := compileMulNode(spec, spec.Width, 0)
	if err != nil {
		return nil, err
	}
	m.root = root
	return m, nil
}

// Mul returns the 2*Width-bit unsigned product of the low Width bits of a
// and b, bit-identical to the reference model.
func (m *Multiplier) Mul(a, b uint64) uint64 {
	a &= m.opMask
	b &= m.opMask
	if m.exact {
		return (a * b) & m.prodMask
	}
	return m.root.eval(a, b) & m.prodMask
}

// MulSigned multiplies two signed Width-bit operands through the
// sign-magnitude arrangement around the unsigned core, like the reference.
func (m *Multiplier) MulSigned(a, b int64) int64 {
	neg := false
	ua := uint64(a)
	ub := uint64(b)
	if a < 0 {
		neg = !neg
		ua = uint64(-a)
	}
	if b < 0 {
		neg = !neg
		ub = uint64(-b)
	}
	p := arith.ToSigned(m.Mul(ua, ub), 2*m.spec.Width)
	if neg {
		p = -p
	}
	return p
}

// compileMulNode freezes the reference recursion for a w-bit sub-multiply
// whose product lane starts at absolute output offset off.
func compileMulNode(spec arith.Multiplier, w, off int) (*mulNode, error) {
	if off >= spec.ApproxLSBs {
		return &mulNode{exact: true}, nil
	}
	if w == 2 {
		kind := spec.Mult
		if off+4 > spec.ApproxLSBs {
			kind = approx.AccMult
		}
		return &mulNode{leaf: true, leafKind: kind}, nil
	}
	h := w / 2
	n := &mulNode{w: w, h: h, hMask: mask(h), prodMask: mask(2 * w)}
	var err error
	if n.ll, err = compileMulNode(spec, h, off); err != nil {
		return nil, err
	}
	// hl and lh occupy the same lane; their plans are identical and the
	// nodes are stateless, so they share one subtree.
	if n.hl, err = compileMulNode(spec, h, off+h); err != nil {
		return nil, err
	}
	n.lh = n.hl
	if n.hh, err = compileMulNode(spec, h, off+2*h); err != nil {
		return nil, err
	}
	// The two 2w-bit accumulations share one (width, k) slice and thus one
	// compiled adder.
	if n.addMid, err = compileAccAdder(spec, 2*h+1, off+h); err != nil {
		return nil, err
	}
	if n.addLo, err = compileAccAdder(spec, 2*w, off); err != nil {
		return nil, err
	}
	return n, nil
}

// compileAccAdder builds the accumulation adder for a w-bit addition whose
// cell at relative bit i sits at absolute output position off+i, mirroring
// the accumulations of the bit-serial model (oracle.Mul).
func compileAccAdder(spec arith.Multiplier, w, off int) (*Adder, error) {
	ka := spec.ApproxLSBs - off
	if ka <= 0 || spec.Add == approx.AccAdd {
		ka = 0
	}
	if ka > w {
		ka = w
	}
	ad, err := CompileAdder(arith.Adder{Width: w, ApproxLSBs: ka, Kind: spec.Add})
	if err != nil {
		return nil, fmt.Errorf("kernel: accumulation adder w=%d off=%d: %w", w, off, err)
	}
	return ad, nil
}

// subProductTables builds the tables of n's four sub-products for one
// fixed w-bit coefficient b: with the operand split as a = ahi<<h | alo,
// every sub-product depends on only one half of the operand, so two
// 2^h-entry tables — one indexed by alo, one by ahi — capture the whole
// variable dependence. Each uint32 entry packs the two sub-products of
// its index (low half | high half << 16); a sub-product of an h <= 8 bit
// child is at most 2h <= 16 bits (composite children mask to their
// product width, exact children multiply h-bit values), so the packing is
// lossless. Each child's table comes through the child's own
// decomposition (see table), not from a plan walk per entry. Requires
// a composite n.
func (n *mulNode) subProductTables(b uint64) (lo, hi []uint32) {
	size := 1 << n.h
	bl, bh := b&n.hMask, b>>n.h
	t := make([]int64, 4*size)
	n.ll.table(t[:size], bl)
	n.lh.table(t[size:2*size], bh)
	n.hl.table(t[2*size:3*size], bl)
	n.hh.table(t[3*size:], bh)
	lo, hi = make([]uint32, size), make([]uint32, size)
	for a := range lo {
		lo[a] = uint32(t[a]) | uint32(t[size+a])<<16
		hi[a] = uint32(t[2*size+a]) | uint32(t[3*size+a])<<16
	}
	return lo, hi
}

// table writes n's product of every operand a < len(dst) with the fixed
// coefficient b into dst[a]: an exact or leaf node enumerates them, a
// composite node combines its children's tables row by row.
func (n *mulNode) table(dst []int64, b uint64) {
	switch {
	case n.exact:
		for a := range dst {
			dst[a] = int64(uint64(a) * b)
		}
	case n.leaf:
		for a := range dst {
			dst[a] = int64(n.leafKind.Eval(uint8(a), uint8(b)))
		}
	default:
		lo, hi := n.subProductTables(b)
		n.rows(dst, lo, hi, 0)
	}
}

// rows writes n's products of the operands a0, a0+1, ... with the
// coefficient of its sub-product tables lo and hi into dst. The operands
// of one row share their high half ahi, so the row hoists the terms that
// depend on it alone: addMid's first operand hl, rounded to its upper
// slice (its carry), and the last addLo's second operand hh << w. One
// loop over the row's low halves then runs the three accumulations of
// eval's last lines. When both adders are exact or AMA5, the loop is
// their shift-free closed form (see wiring), inline and branch-free;
// other kinds call the compiled adders. addMid's sum needs no mask: hl
// and lh are below 2^(2h), and so the sum, exact or not, is below
// 2^(2h+1).
func (n *mulNode) rows(dst []int64, lo, hi []uint32, a0 uint64) {
	h, w := uint(n.h)&63, uint(n.w)&63
	midForm, okM := n.addMid.wiringForm()
	loForm, okL := n.addLo.wiringForm()
	mW := mask(n.addLo.spec.Width)
	addMid, addLo := n.addMid.fn, n.addLo.fn
	for len(dst) > 0 {
		alo := a0 & n.hMask
		row := lo[alo:min(uint64(len(lo)), alo+uint64(len(dst)))]
		out := dst[:len(row)]
		he := hi[a0>>h]
		hl, hhw := uint64(he&0xffff), uint64(he>>16)<<w
		if okM && okL {
			hlUp := midForm.add(hl, 0)
			for i, le := range row {
				ll, lh := uint64(le&0xffff), uint64(le>>16)
				s := loForm.add(ll, (hlUp+lh)<<h) & mW
				out[i] = int64((loForm.add(s, 0) + hhw) & mW)
			}
		} else {
			for i, le := range row {
				mid, _ := addMid(hl, uint64(le>>16), 0)
				s, _ := addLo(uint64(le&0xffff), mid<<h, 0)
				s, _ = addLo(s, hhw, 0)
				out[i] = int64(s)
			}
		}
		dst = dst[len(row):]
		a0 += uint64(len(row))
	}
}

// wiring is the closed form of an exact or AMA5 adder, without a shift,
// for operands that fit its width: the sum of a and b is add(a, b) masked
// to the width. AMA5 adds the upper slices of a and b with bit k-1 of a
// as the carry into them, and a's upper slice plus that carry is a
// rounded to a multiple of 2^k, (a + 2^(k-1)) &^ mask(k); it keeps b's
// low k bits, so its sum is b plus rounded a. Exact addition is the k = 0
// case.
type wiring struct{ half, up uint64 }

func (f wiring) add(a, b uint64) uint64 { return (a+f.half)&f.up + b }

// wiringForm returns the adder's closed form; ok is false for the kinds
// without one (AMA1-AMA4 with approximated LSBs).
func (ad *Adder) wiringForm() (f wiring, ok bool) {
	k := effectiveLSBs(ad.spec)
	if k != 0 && ad.spec.Kind != approx.ApproxAdd5 {
		return wiring{}, false
	}
	return wiring{half: uint64(1) << k >> 1, up: ^mask(k)}, true
}

// composite reports whether the plan has a composite root, whose
// top-level decomposition the constant-product fills run by rows: every
// plan but the exact ones and the 2-bit leaf roots. Only a composite plan
// gets const-mul tables and projections (see NewConstMulTable).
func (m *Multiplier) composite() bool {
	return m.root != nil && !m.root.leaf && !m.root.exact
}

// eval walks the plan; operands are w-bit.
func (n *mulNode) eval(a, b uint64) uint64 {
	if n.exact {
		return a * b
	}
	if n.leaf {
		return uint64(n.leafKind.Eval(uint8(a), uint8(b)))
	}
	h := n.h
	hm := n.hMask
	ll := n.ll.eval(a&hm, b&hm)
	hl := n.hl.eval(a>>h, b&hm)
	lh := n.lh.eval(a&hm, b>>h)
	hh := n.hh.eval(a>>h, b>>h)
	mid := n.addMid.Add(hl, lh)
	s := n.addLo.Add(ll, mid<<h)
	s = n.addLo.Add(s, hh<<n.w)
	return s & n.prodMask
}
