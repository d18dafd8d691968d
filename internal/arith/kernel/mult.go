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

// Spec returns the configuration the plan was compiled from.
func (m *Multiplier) Spec() arith.Multiplier { return m.spec }

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
// the reference model's addAt.
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

// subProductTables enumerates the four half-width sub-products of the
// plan's top-level decomposition for one fixed coefficient magnitude cm:
// with the operand split as a = ahi<<h | alo, every root sub-product
// depends on only one half of the operand, so two 2^h-entry tables — one
// indexed by alo, one by ahi — capture the whole variable dependence. Each
// uint32 entry packs the two sub-products of its index (low half | high
// half << 16); a sub-product of an h <= 8 bit child is at most 2h <= 16
// bits (composite children mask to their product width, exact children
// multiply h-bit values), so the packing is lossless. Requires a composite
// root (m.root non-nil and neither exact nor leaf).
func (m *Multiplier) subProductTables(cm uint64) (lo, hi []uint32) {
	n := m.root
	h := uint(n.h)
	cm &= m.opMask
	cl, ch := cm&n.hMask, cm>>h
	size := 1 << h
	lo = make([]uint32, size)
	hi = make([]uint32, size)
	for a := 0; a < size; a++ {
		ua := uint64(a)
		lo[a] = uint32(n.ll.eval(ua, cl)) | uint32(n.lh.eval(ua, ch))<<16
		hi[a] = uint32(n.hl.eval(ua, cl)) | uint32(n.hh.eval(ua, ch))<<16
	}
	return lo, hi
}

// composite reports whether the plan has a composite root whose top-level
// decomposition the table builders can exploit (false for exact plans and
// 2-bit leaf roots).
func (m *Multiplier) composite() bool {
	return m.root != nil && !m.root.leaf && !m.root.exact
}

// decompExact reports whether the plan's top-level decomposition is exact:
// both accumulation adders of the composite root reduce to native
// addition, so combining the four sub-products per lookup costs a handful
// of word operations. This is the condition for the live decomposed table
// tier — with approximate combining adders the per-lookup datapath costs
// more than the full-table load it would replace.
func (m *Multiplier) decompExact() bool {
	return m.composite() && m.root.addMid.exact && m.root.addLo.exact
}

// constMulFunc compiles the signed constant-multiply closure over a pair
// of sub-product tables: the per-sample form of the decomposed table tier.
// The closure reproduces MulSigned exactly — branch-free sign-magnitude
// split of the operand (its sign is data-dependent on the signal, so a
// branch would mispredict), the root node's two accumulations over the
// table entries, product slicing, sign re-application (negC folds the
// fixed coefficient's sign in at compile time). The exact-combining form
// (the live tier, see decompExact) is fully inline; other combinations go
// through the adders' compiled AddCarry closures.
func (m *Multiplier) constMulFunc(lo, hi []uint32, negC bool) func(int64) int64 {
	n := m.root
	w := m.spec.Width
	h := uint(n.h)
	loMask := n.hMask
	opMask := m.opMask
	sign := uint(w - 1)
	pm := n.prodMask & m.prodMask
	sx := uint(64 - 2*w)
	w2 := uint(n.w)
	mM := mask(n.addMid.spec.Width)
	mL := mask(n.addLo.spec.Width)
	// cneg is the coefficient's sign as a flip mask XORed with the
	// operand's at evaluation time.
	var cneg uint64
	if negC {
		cneg = ^uint64(0)
	}
	if n.addMid.exact && n.addLo.exact {
		return func(x int64) int64 {
			mag, sgn := signMag(uint64(x)&opMask, opMask, sign)
			le := lo[mag&loMask]
			he := hi[mag>>h]
			mid := (uint64(he&0xffff) + uint64(le>>16)) & mM
			s := (uint64(le&0xffff) + mid<<h + uint64(he>>16)<<w2) & mL
			p := sext(s&pm, sx)
			flip := int64(sgn ^ cneg)
			return (p ^ flip) - flip
		}
	}
	addMid, addLo := n.addMid.fn, n.addLo.fn
	return func(x int64) int64 {
		mag, sgn := signMag(uint64(x)&opMask, opMask, sign)
		le := lo[mag&loMask]
		he := hi[mag>>h]
		mid, _ := addMid(uint64(he&0xffff), uint64(le>>16), 0)
		s, _ := addLo(uint64(le&0xffff), mid<<h, 0)
		s, _ = addLo(s, uint64(he>>16)<<w2, 0)
		p := sext(s&pm, sx)
		flip := int64(sgn ^ cneg)
		return (p ^ flip) - flip
	}
}

// productFn compiles the signed constant-product closure for coefficient
// c without materializing any full table: exact plans multiply natively,
// composite plans combine two small sub-product tables per call (with the
// root's accumulation adders devirtualized, see combineFn), and
// everything else (a 2-bit leaf root) walks the plan. It reproduces
// MulSigned(x, c) bit for bit — in particular it is odd, f(-x) == -f(x),
// the property the sign-halved enumerations rely on — and is what the
// wiring-chain projection builder enumerates, the reason a projected
// tap's 2^Width raw table never needs to exist.
func (m *Multiplier) productFn(c int64) func(int64) int64 {
	negC := c < 0
	cm := uint64(c)
	if negC {
		cm = uint64(-c)
	}
	cm &= m.opMask
	switch {
	case m.exact:
		return exactConstMul(m.spec.Width, cm, negC)
	case m.decompExact():
		lo, hi := m.subProductTables(cm)
		return m.constMulFunc(lo, hi, negC)
	case m.composite():
		lo, hi := m.subProductTables(cm)
		core := m.combineFn(lo, hi)
		opMask := m.opMask
		sign := uint(m.spec.Width - 1)
		var cneg uint64
		if negC {
			cneg = ^uint64(0)
		}
		return func(x int64) int64 {
			mag, sgn := signMag(uint64(x)&opMask, opMask, sign)
			p := core(mag)
			flip := int64(sgn ^ cneg)
			return (p ^ flip) - flip
		}
	default:
		return func(x int64) int64 { return m.MulSigned(x, c) }
	}
}

// combineFn compiles the magnitude-core closure over one coefficient's
// sub-product tables: the root node's two accumulations over one operand
// magnitude's entries, returning the signed core product (the
// coefficient's sign not yet applied), exactly the per-entry evaluation
// MulSigned performs after its sign-magnitude split. The accumulation
// adders run devirtualized where they have closed forms: native addition
// and the wiring kinds AMA4/AMA5 (the paper's evaluation sweep) inline,
// other kinds through the compiled closures. Enumeration-heavy builders
// (full product tables, chain projections) call it 2^(Width-1) times per
// coefficient, so the saved indirect calls are the build cost.
func (m *Multiplier) combineFn(lo, hi []uint32) func(mag uint64) int64 {
	n := m.root
	h := uint(n.h)
	hm := n.hMask
	w2 := uint(n.w)
	pm := n.prodMask & m.prodMask
	opMask := m.opMask
	width := 2 * m.spec.Width
	sx := uint(64 - width)
	addMid := adderAddFn(n.addMid)
	addLo := adderAddFn(n.addLo)
	return func(mag uint64) int64 {
		a := mag & opMask
		le := lo[a&hm]
		he := hi[a>>h]
		mid := addMid(uint64(he&0xffff), uint64(le>>16))
		s := addLo(uint64(le&0xffff), mid<<h)
		s = addLo(s, uint64(he>>16)<<w2)
		return sext(s&pm, sx)
	}
}

// adderAddFn returns a carry-free Add for one accumulation adder,
// inlining the closed forms of the exact and wiring kinds; everything
// else delegates to the plan's compiled strategy closure.
func adderAddFn(ad *Adder) func(a, b uint64) uint64 {
	w := ad.spec.Width
	mW := mask(w)
	if ad.exact {
		return func(a, b uint64) uint64 { return (a + b) & mW }
	}
	if k := effectiveLSBs(ad.spec); k >= 1 &&
		(ad.spec.Kind == approx.ApproxAdd4 || ad.spec.Kind == approx.ApproxAdd5) {
		mk := mask(k)
		ku := uint(k)
		inv := ad.spec.Kind == approx.ApproxAdd4
		return func(a, b uint64) uint64 {
			a &= mW
			b &= mW
			low := b & mk
			if inv {
				low = ^a & mk
			}
			hi := a>>ku + b>>ku + (a>>(ku-1))&1
			return (low | hi<<ku) & mW
		}
	}
	return ad.Add
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
