package kernel

import (
	"fmt"
	"sync"

	"github.com/xbiosip/xbiosip/internal/arith"
)

// ConstMulTable evaluates the signed product of a variable Width-bit
// operand with one fixed coefficient, bit-identical to the bit-serial
// arith.Multiplier.MulSigned. The representation is tiered by what the
// compiled multiplier plan allows:
//
//   - exact plans carry no table at all: the product is one native
//     multiply behind a branch-free sign-magnitude wrapper;
//   - plans with a composite root keep the full 2^Width table, filled
//     through the decomposition: two 256-entry sub-product tables,
//     combined one row of 256 magnitudes at a time (see mulNode.rows),
//     instead of a plan-tree walk per entry;
//   - 2-bit leaf roots keep the full table filled through the plan walk.
//
// A full table is int32 when a bound proves every product fits (see
// constFits32), int64 otherwise, and is filled on demand: the Chain.Run
// of a chain that reads the table fills the operand magnitudes it reaches
// before it reads (see coverage).
//
// FIR stages multiply the signal exclusively by fixed coefficients, so one
// ConstMulTable makes each tap one or two cache-resident loads.
type ConstMulTable struct {
	fn    func(int64) int64
	coeff int64
	// Live storage, for footprint accounting: at most one tier is set.
	tab32 []int32   // full table, compact
	tab64 []int64   // full table, when a product may overflow int32
	cov   *coverage // fill state of a full table, nil otherwise
}

// NewConstMulTable builds the table for coefficient c on multiplier spec.
// The operand width must be at most 16 bits (a full table is 2^Width
// entries; the exact tier keeps the same bound so every tier covers the
// same specs). A full table is only allocated here;
// its entries fill as reads reach them, from the product source its first
// fill makes (see productRows).
func NewConstMulTable(spec arith.Multiplier, c int64) (*ConstMulTable, error) {
	m, err := CachedMultiplier(spec)
	if err != nil {
		return nil, err
	}
	if spec.Width > 16 {
		return nil, fmt.Errorf("kernel: const-mul table width %d exceeds 16", spec.Width)
	}
	t := &ConstMulTable{coeff: c}
	if m.exact {
		t.fn = exactConstMul(spec.Width, magnitude(c)&m.opMask, c < 0)
		return t, nil
	}
	if constFits32(spec, c) {
		t.tab32 = make([]int32, 1<<spec.Width)
	} else {
		t.tab64 = make([]int64, 1<<spec.Width)
	}
	var src *productRows // made by the first fill
	t.cov = newCoverage(spec.Width, func(lo, hi uint64) {
		if src == nil {
			src = m.constRows(c)
		}
		if t.tab32 != nil {
			fillSigned(t.tab32, lo, hi, true, src)
		} else {
			fillSigned(t.tab64, lo, hi, true, src)
		}
	})
	t.fn = fullTableFunc(t.tab32, t.tab64, m.opMask)
	return t, nil
}

// constFits32 reports whether every product of coefficient c's full
// table fits int32, from a bound rather than from the entries (see the
// package documentation for the proof): always below 16-bit operands,
// whose products have at most 30 bits, and at 16 bits when at most Width
// LSBs are approximated and |c| < 2^(Width-1).
func constFits32(spec arith.Multiplier, c int64) bool {
	return spec.Width < 16 ||
		spec.ApproxLSBs <= spec.Width && magnitude(c) < uint64(1)<<(spec.Width-1)
}

// exactConstMul is the table-free tier: the exact plan's product is a
// native multiply behind a branch-free sign-magnitude wrapper (the
// operand's sign is data-dependent on the signal, so a branch would
// mispredict), with the coefficient's sign negC folded in once.
func exactConstMul(w int, cm uint64, negC bool) func(int64) int64 {
	opMask := mask(w)
	pm := mask(2 * w)
	sign := uint(w - 1)
	sx := uint(64 - 2*w)
	var cneg uint64
	if negC {
		cneg = ^uint64(0)
	}
	return func(x int64) int64 {
		mag, sgn := signMag(uint64(x)&opMask, opMask, sign)
		p := sext(mag*cm&pm, sx)
		flip := int64(sgn ^ cneg)
		return (p ^ flip) - flip
	}
}

// productRows is the source of one full table's products, made by its
// first fill: a composite plan's constant products come a row at a time
// from the root's sub-product tables (see mulNode.rows), every other
// product (exact and leaf-root plans, squares) from each, one magnitude
// at a time.
type productRows struct {
	root   *mulNode
	lo, hi []uint32
	flip   int64 // -1 for a negative coefficient, else 0
	each   func(mag uint64) int64
}

// constRows returns the product source of coefficient c through plan m.
func (m *Multiplier) constRows(c int64) *productRows {
	if !m.composite() {
		return &productRows{each: m.productFn(c)}
	}
	r := &productRows{root: m.root}
	r.lo, r.hi = m.root.subProductTables(magnitude(c) & m.opMask)
	if c < 0 {
		r.flip = -1
	}
	return r
}

// products writes the signed products of +mag, +mag+1, ... into dst.
func (r *productRows) products(dst []int64, mag uint64) {
	if r.root == nil {
		for i := range dst {
			dst[i] = r.each(mag + uint64(i))
		}
		return
	}
	r.root.rows(dst, r.lo, r.hi, mag)
	sx, flip := uint(64-2*r.root.w)&63, r.flip // the core has 2*Width bits
	for i, s := range dst {
		dst[i] = (sext(uint64(s), sx) ^ flip) - flip
	}
}

// fillSigned writes magnitudes [lo, hi) of a full signed product table
// from src, fillStep products at a time: entry mag holds the product p of
// +mag and entry -mag its mirror, -p for odd products (constant
// multiplication) and p for even ones (squares), so the two signs share
// one evaluation. The minimum operand, magnitude len(tab)/2, has only its
// negative entry.
func fillSigned[T int32 | int64](tab []T, lo, hi uint64, odd bool, src *productRows) {
	n := uint64(len(tab))
	var buf [fillStep]int64
	for mag := lo; mag < hi; mag += fillStep {
		ps := buf[:min(hi-mag, fillStep)]
		src.products(ps, mag)
		for i, p := range ps {
			x := mag + uint64(i)
			if x < n/2 {
				tab[x] = T(p)
			}
			if odd {
				p = -p
			}
			if x > 0 {
				tab[(n-x)&(n-1)] = T(p)
			}
		}
	}
}

// fullTableFunc is the lookup closure over a full table tier. It reads
// without filling: its callers cover the operands first.
func fullTableFunc(tab32 []int32, tab64 []int64, opMask uint64) func(int64) int64 {
	if tab32 != nil {
		return func(x int64) int64 { return int64(tab32[uint64(x)&opMask]) }
	}
	return func(x int64) int64 { return tab64[uint64(x)&opMask] }
}

// Bytes returns the allocated table storage of this tier in bytes (zero
// for the exact, table-free tier), filled or not.
func (t *ConstMulTable) Bytes() int64 {
	return int64(len(t.tab32))*4 + int64(len(t.tab64))*8
}

// filledBytes scales a table's allocated bytes to the share of entries
// cov has filled; a table without a coverage is filled when it is built.
func filledBytes(cov *coverage, bytes int64) int64 {
	if cov == nil {
		return bytes
	}
	return bytes / int64(2*cov.half) * cov.entries()
}

// SquareTable evaluates x*x through a compiled multiplier plan; it
// implements the squarer stage. Exact plans are table-free (one native
// multiply); approximate plans keep the full 2^Width int32 table, filled
// on demand like a ConstMulTable's. Every square fits: it is the
// 2*Width <= 32-bit core sign-extended, and an even function is never
// negated. Squaring depends on both halves of its single operand at
// once, so the row fills of ConstMulTable do not apply.
type SquareTable struct {
	fn    func(int64) int64
	slice func(dst, xs []int64, shift uint)
	tab   []int32
	cov   *coverage // fill state of the full table, nil when exact
}

// NewSquareTable builds the squaring table for spec (Width <= 16). A full
// table is only allocated here; its entries fill as reads reach them.
func NewSquareTable(spec arith.Multiplier) (*SquareTable, error) {
	m, err := CachedMultiplier(spec)
	if err != nil {
		return nil, err
	}
	if spec.Width > 16 {
		return nil, fmt.Errorf("kernel: square table width %d exceeds 16", spec.Width)
	}
	t := &SquareTable{}
	if m.exact {
		// The exact square is the plain square of the operand sign-extended
		// from Width bits, v*v: |v| <= 2^(Width-1), so v*v <= 2^(2*Width-2)
		// and the 2*Width-bit product mask and its sign extension change no
		// bit. The block path computes its shifts once per call, bounded so
		// that the loop needs no range check: a square is at most 2^30, so
		// a shift of 63 or more yields 0 either way.
		width := spec.Width
		t.fn = func(x int64) int64 {
			sx := uint(64-width) & 63
			v := int64(uint64(x)<<sx) >> sx
			return v * v
		}
		t.slice = func(dst, xs []int64, shift uint) {
			sx, sh := uint(64-width)&63, min(shift, 63)&63
			for i, x := range xs {
				v := int64(uint64(x)<<sx) >> sx
				dst[i] = v * v >> sh
			}
		}
		return t, nil
	}
	// The block path clamps its shift once per call, as the exact path
	// does: entries are int32, so a shift of 63 or more yields 0 or -1
	// either way. opMask is len(tab)-1, so indexing tab[opMask] once
	// lets the loop index without a bounds check.
	tab, opMask := make([]int32, 1<<spec.Width), m.opMask
	src := &productRows{each: func(mag uint64) int64 { return m.MulSigned(int64(mag), int64(mag)) }}
	cov := newCoverage(spec.Width, func(lo, hi uint64) { fillSigned(tab, lo, hi, false, src) })
	t.tab, t.cov = tab, cov
	t.fn = func(x int64) int64 {
		cov.cover(magnitude(x))
		return int64(tab[uint64(x)&opMask])
	}
	t.slice = func(dst, xs []int64, shift uint) {
		cov.cover(maxMagnitude(xs))
		sh := min(shift, 63) & 63
		_ = tab[opMask]
		dst = dst[:len(xs)]
		for i, x := range xs {
			dst[i] = int64(tab[uint64(x)&opMask]) >> sh
		}
	}
	return t, nil
}

// Square returns the bit-true square of x (interpreted in Width-bit two's
// complement). A full table covers |x| first.
func (t *SquareTable) Square(x int64) int64 { return t.fn(x) }

// SquareSlice squares a whole signal into dst with the output shift
// applied — one call per signal with the active tier inline in the loop
// body; a full table covers the largest |x| once, before the loop. dst
// and xs may be the same slice (a same-index transform).
func (t *SquareTable) SquareSlice(dst, xs []int64, shift uint) { t.slice(dst, xs, shift) }

// Bytes returns the allocated table storage in bytes, filled or not
// (zero for exact specs).
func (t *SquareTable) Bytes() int64 { return int64(len(t.tab)) * 4 }

// planCache memoizes compiled plans and tables globally: design-space
// exploration rebuilds pipelines for many configurations that share stage
// settings, so each distinct plan/table is paid for once per process.
var planCache struct {
	sync.Mutex
	adders map[arith.Adder]*Adder
	mults  map[arith.Multiplier]*Multiplier
	cmul   map[constMulKey]*ConstMulTable
	sqr    map[arith.Multiplier]*SquareTable
	proj   map[projKey]ProjTable
}

type constMulKey struct {
	spec  arith.Multiplier
	coeff int64
}

// projKey identifies one AMA5 chain projection (see newChainProj): the
// product it projects plus the consuming chain adder's width,
// approximated-LSB count and the tap's subtract polarity.
type projKey struct {
	spec  arith.Multiplier
	coeff int64
	w, k  int
	neg   bool
}

// Stats is the global cache accounting CacheStats returns: entry counts
// per cache and allocated table bytes per representation tier, plus the
// bytes filled so far. Compiled plans hold no tables (their state is a
// few masks and closures), so TableBytes is the process's whole kernel
// working set.
type Stats struct {
	Adders       int
	Multipliers  int
	ConstTables  int
	SquareTables int
	ChainProjs   int
	// FullTableBytes covers the int32/int64 full product and square
	// tables (every plan that is not exact); ChainProjBytes the AMA5 chain
	// projection tables (uint16 entries where a bound proves every term
	// fits, uint32 otherwise).
	FullTableBytes int64
	ChainProjBytes int64
	// TableBytes is the total allocated table storage.
	TableBytes int64
	// FilledBytes is the part of TableBytes whose entries are filled:
	// tables fill as reads reach new operand magnitudes.
	FilledBytes int64
}

// CacheStats reports the live contents of the global plan/table cache, so
// callers can track the kernel working-set size the way they track ns/op.
func CacheStats() Stats {
	planCache.Lock()
	defer planCache.Unlock()
	st := Stats{
		Adders:       len(planCache.adders),
		Multipliers:  len(planCache.mults),
		ConstTables:  len(planCache.cmul),
		SquareTables: len(planCache.sqr),
		ChainProjs:   len(planCache.proj),
	}
	for _, t := range planCache.cmul {
		st.FullTableBytes += t.Bytes()
		st.FilledBytes += filledBytes(t.cov, t.Bytes())
	}
	for _, t := range planCache.sqr {
		st.FullTableBytes += t.Bytes()
		st.FilledBytes += filledBytes(t.cov, t.Bytes())
	}
	for _, p := range planCache.proj {
		st.ChainProjBytes += p.Bytes()
		st.FilledBytes += filledBytes(p.cov, p.Bytes())
	}
	st.TableBytes = st.FullTableBytes + st.ChainProjBytes
	return st
}

// DropCaches empties the global plan and table caches. Existing plan and
// table pointers remain valid, filled as far as their readers took them
// and still filling on demand; only sharing with future lookups is lost.
// It exists for cold-cache benchmarks and cache accounting tests. Fresh
// empty maps are installed (not nil) so builders racing a drop — a table
// is allocated outside the lock — insert into a live map instead of
// panicking. Fills take each table's own lock, never the cache's.
func DropCaches() {
	planCache.Lock()
	defer planCache.Unlock()
	planCache.adders = make(map[arith.Adder]*Adder)
	planCache.mults = make(map[arith.Multiplier]*Multiplier)
	planCache.cmul = make(map[constMulKey]*ConstMulTable)
	planCache.sqr = make(map[arith.Multiplier]*SquareTable)
	planCache.proj = make(map[projKey]ProjTable)
}

// CachedAdder returns a shared compiled plan for spec. Plans are immutable
// after compilation, so sharing is safe.
func CachedAdder(spec arith.Adder) (*Adder, error) {
	planCache.Lock()
	defer planCache.Unlock()
	if planCache.adders == nil {
		planCache.adders = make(map[arith.Adder]*Adder)
	}
	if ad, ok := planCache.adders[spec]; ok {
		return ad, nil
	}
	ad, err := CompileAdder(spec)
	if err != nil {
		return nil, err
	}
	planCache.adders[spec] = ad
	return ad, nil
}

// CachedMultiplier returns a shared compiled plan for spec.
func CachedMultiplier(spec arith.Multiplier) (*Multiplier, error) {
	planCache.Lock()
	defer planCache.Unlock()
	if planCache.mults == nil {
		planCache.mults = make(map[arith.Multiplier]*Multiplier)
	}
	if m, ok := planCache.mults[spec]; ok {
		return m, nil
	}
	m, err := CompileMultiplier(spec)
	if err != nil {
		return nil, err
	}
	planCache.mults[spec] = m
	return m, nil
}

// CachedConstMulTable returns a shared, memoized table for (spec, c). The
// build — for a full table only its allocation, the entries fill on
// demand — runs outside the cache lock so cold builds do not stall
// concurrent plan lookups; a racing duplicate build is benign (the tables
// are identical, the first insert wins and every caller receives it).
func CachedConstMulTable(spec arith.Multiplier, c int64) (*ConstMulTable, error) {
	key := constMulKey{spec, c}
	planCache.Lock()
	if planCache.cmul == nil {
		planCache.cmul = make(map[constMulKey]*ConstMulTable)
	}
	t, ok := planCache.cmul[key]
	planCache.Unlock()
	if ok {
		return t, nil
	}
	t, err := NewConstMulTable(spec, c)
	if err != nil {
		return nil, err
	}
	planCache.Lock()
	defer planCache.Unlock()
	if prev, ok := planCache.cmul[key]; ok {
		return prev, nil
	}
	planCache.cmul[key] = t
	return t, nil
}

// CachedSquareTable returns a shared, memoized squaring table for spec,
// with the same out-of-lock build as CachedConstMulTable.
func CachedSquareTable(spec arith.Multiplier) (*SquareTable, error) {
	planCache.Lock()
	if planCache.sqr == nil {
		planCache.sqr = make(map[arith.Multiplier]*SquareTable)
	}
	t, ok := planCache.sqr[spec]
	planCache.Unlock()
	if ok {
		return t, nil
	}
	t, err := NewSquareTable(spec)
	if err != nil {
		return nil, err
	}
	planCache.Lock()
	defer planCache.Unlock()
	if prev, ok := planCache.sqr[spec]; ok {
		return prev, nil
	}
	planCache.sqr[spec] = t
	return t, nil
}
