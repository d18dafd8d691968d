package kernel

import "github.com/xbiosip/xbiosip/internal/arith"

// Hooks for the external tier test (tiers_test.go), which imports the
// explorer's packages and so cannot live in package kernel, and the scalar
// adder and table views the equivalence tests compare with the bit-serial
// models of package oracle. Production code runs chains, windows and
// squarers instead.

// ConstFits32 is the int32 bound of a full const-mul table (constFits32).
func ConstFits32(spec arith.Multiplier, c int64) bool { return constFits32(spec, c) }

// ProjFits16 is the uint16 bound of an AMA5 chain projection
// (projFits16).
func ProjFits16(spec arith.Multiplier, w, k int, neg bool) bool {
	return projFits16(spec, w, k, neg)
}

// Products returns the signed product of +mag with c for every magnitude
// 0..2^(Width-1), from the source a full table's fills read: the rows of
// the plan's composite root.
func (m *Multiplier) Products(c int64) []int64 {
	ps := make([]int64, m.opMask/2+2)
	m.constRows(c).products(ps, 0)
	return ps
}

// SubProductTables returns the sub-product tables of coefficient
// magnitude cm through the plan's composite root.
func (m *Multiplier) SubProductTables(cm uint64) (lo, hi []uint32) {
	return m.root.subProductTables(cm & m.opMask)
}

// FillProj builds a fresh projection of c through the plan, for an AMA5
// chain of width w with k approximated LSBs, and fills it whole.
func (m *Multiplier) FillProj(c int64, w, k int, neg bool) ProjTable {
	p := newChainProj(m, c, w, k, neg)
	p.cov.cover(p.cov.half)
	return p
}

// RaceBuild reports whether the race detector is on (race_test.go).
func RaceBuild() bool { return raceBuild }

// Spec returns the configuration the plan was compiled from.
func (ad *Adder) Spec() arith.Adder { return ad.spec }

// AddCarry adds a, b and the carry-in bit and returns the Width-bit sum
// with the carry out of the final cell, bit-identical to the reference.
func (ad *Adder) AddCarry(a, b uint64, cin uint8) (uint64, uint8) {
	return ad.fn(a, b, cin)
}

// Sub returns the Width-bit difference a-b computed as a + NOT b + 1.
func (ad *Adder) Sub(a, b uint64) uint64 {
	s, _ := ad.fn(a, ^b&mask(ad.spec.Width), 1)
	return s
}

// Spec returns the configuration the plan was compiled from.
func (m *Multiplier) Spec() arith.Multiplier { return m.spec }

// Coeff returns the fixed coefficient.
func (t *ConstMulTable) Coeff() int64 { return t.coeff }

// Mul returns the bit-true product of x (interpreted in Width-bit two's
// complement) with the fixed coefficient. The table first covers |x|
// (one atomic load once it is filled that far), then reads the entry,
// as a chain's Run covers its signal before its loops read the tiers.
func (t *ConstMulTable) Mul(x int64) int64 {
	t.cov.cover(magnitude(x))
	return t.fn(x)
}

// Entries returns the number of table entries.
func (p ProjTable) Entries() int {
	if p.u16 != nil {
		return len(p.u16)
	}
	return len(p.u32)
}
