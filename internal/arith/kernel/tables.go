package kernel

import (
	"fmt"
	"math"
	"sync"

	"github.com/xbiosip/xbiosip/internal/arith"
)

// ConstMulTable evaluates the signed product of a variable Width-bit
// operand with one fixed coefficient, bit-identical to
// arith.ConstMulTable. The representation is tiered by what the compiled
// multiplier plan allows, most compact first:
//
//   - exact plans carry no table at all: the product is one native
//     multiply behind a branch-free sign-magnitude wrapper;
//   - plans whose top-level decomposition is exact (a composite root whose
//     two accumulation adders are exact) store two 2^(Width/2)-entry
//     byte-decomposed sub-product tables plus the compiled native
//     combining adder — 2 KB instead of 512 KB at the pipeline's 16-bit
//     width, and ~256x cheaper to build;
//   - plans with an approximately-combined composite root keep the full
//     2^Width table (the approximate combining per lookup costs more than
//     the load it replaces on ALU-bound hosts), stored as int32 unless an
//     entry overflows — but BUILD through the decomposition: two 256-entry
//     sub-product tables plus two compiled accumulations per entry instead
//     of a plan-tree walk per entry;
//   - everything else (oracle-mode plans, 2-bit leaf roots) builds the
//     full table through the bit-serial model, int32/int64 as above.
//
// FIR stages multiply the signal exclusively by fixed coefficients, so one
// ConstMulTable makes each tap one or two cache-resident loads.
type ConstMulTable struct {
	fn     func(int64) int64
	spec   arith.Multiplier
	opMask uint64
	coeff  int64
	exact  bool // tier 0: table-free native product
	// Live storage, for footprint accounting: at most one tier is set.
	lo, hi []uint32 // decomposed sub-product tables
	tab32  []int32  // full table, compact
	tab64  []int64  // full table, overflow fallback
}

// NewConstMulTable builds the table for coefficient c on multiplier spec.
// The operand width must be at most 16 bits (a full table is 2^Width
// entries; the decomposed tiers are far smaller but keep the same bound so
// every tier covers the same specs).
func NewConstMulTable(spec arith.Multiplier, c int64) (*ConstMulTable, error) {
	m, err := CachedMultiplier(spec)
	if err != nil {
		return nil, err
	}
	if spec.Width > 16 {
		return nil, fmt.Errorf("kernel: const-mul table width %d exceeds 16", spec.Width)
	}
	t := &ConstMulTable{spec: spec, opMask: m.opMask, coeff: c}
	negC := c < 0
	cm := uint64(c)
	if negC {
		cm = uint64(-c)
	}
	cm &= m.opMask
	switch {
	case m.exact:
		t.exact = true
		t.fn = exactConstMul(spec.Width, cm, negC)
	case m.decompExact():
		t.lo, t.hi = m.subProductTables(cm)
		t.fn = m.constMulFunc(t.lo, t.hi, negC)
	case m.composite():
		// Full table, built through the top-level decomposition: 4 x 2^(w/2)
		// child evaluations shared by all entries, two devirtualized
		// accumulations per entry (see combineFn), and the two signs of one
		// magnitude share one core evaluation.
		lo, hi := m.subProductTables(cm)
		core := m.combineFn(lo, hi)
		t.tab32, t.tab64 = fullProductTable(spec.Width, true, func(mag int64) int64 {
			p := core(uint64(mag))
			if negC {
				p = -p
			}
			return p
		})
		t.fn = fullTableFunc(t.tab32, t.tab64, m.opMask)
	default:
		t.tab32, t.tab64 = fullProductTable(spec.Width, true, func(mag int64) int64 {
			return m.MulSigned(mag, c)
		})
		t.fn = fullTableFunc(t.tab32, t.tab64, m.opMask)
	}
	return t, nil
}

// Exact reports whether the table is the table-free exact tier: the
// product is a native multiply of the operand with Coeff. Callers with an
// exact accumulator may then fuse the whole chain into native
// multiply-accumulate (see Adder.NewChain).
func (t *ConstMulTable) Exact() bool { return t.exact }

// exactConstMul is the table-free tier: the exact plan's product is a
// native multiply behind the same branch-free sign-magnitude wrapper as
// the decomposed tier.
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

// fullProductTable enumerates a signed product function over all 2^w
// operand values, storing int32 entries unless a value overflows (then the
// whole table promotes to int64). The two signs of one magnitude share a
// single core evaluation through the sign-magnitude wrapper: odd marks
// functions with f(-mag) == -f(mag) (constant multiplication); squares are
// even (f(-mag) == f(mag)).
func fullProductTable(w int, odd bool, f func(mag int64) int64) ([]int32, []int64) {
	n := 1 << w
	opMask := mask(w)
	half := n / 2
	tab := make([]int64, n)
	fits := true
	for mag := 0; mag <= half; mag++ {
		p := f(int64(mag))
		mirror := p
		if odd {
			mirror = -p
		}
		if p > math.MaxInt32 || p < math.MinInt32 || mirror > math.MaxInt32 {
			fits = false
		}
		if mag < half {
			tab[mag] = p
		}
		if mag > 0 {
			tab[(uint64(n)-uint64(mag))&opMask] = mirror
		}
	}
	if !fits {
		return nil, tab
	}
	t32 := make([]int32, n)
	for i, v := range tab {
		t32[i] = int32(v)
	}
	return t32, nil
}

// fullTableFunc is the lookup closure over a full table tier.
func fullTableFunc(tab32 []int32, tab64 []int64, opMask uint64) func(int64) int64 {
	if tab32 != nil {
		return func(x int64) int64 { return int64(tab32[uint64(x)&opMask]) }
	}
	return func(x int64) int64 { return tab64[uint64(x)&opMask] }
}

// Coeff returns the fixed coefficient.
func (t *ConstMulTable) Coeff() int64 { return t.coeff }

// Mul returns the bit-true product of x (interpreted in Width-bit two's
// complement) with the fixed coefficient. The full-table tier is inline
// (the method is small enough for the per-sample paths to inline it to a
// single load); the other tiers evaluate through the tier closure.
func (t *ConstMulTable) Mul(x int64) int64 {
	if t.tab32 != nil {
		return int64(t.tab32[uint64(x)&t.opMask])
	}
	return t.fn(x)
}

// MulFunc returns the product closure itself: the per-sample hot paths
// (FIR taps, compiled chains) call it directly, one indirect call per
// product with the whole active tier inline in the closure body.
func (t *ConstMulTable) MulFunc() func(int64) int64 { return t.fn }

// MulSlice multiplies a whole signal by the fixed coefficient into dst —
// the batch ConstMul path: one call per vector with the full-table tier
// inline in the loop, the tier closure per element otherwise. dst and xs
// may be the same slice (a same-index transform).
func (t *ConstMulTable) MulSlice(dst, xs []int64) {
	if tab := t.tab32; tab != nil {
		m := t.opMask
		for i, x := range xs {
			dst[i] = int64(tab[uint64(x)&m])
		}
		return
	}
	fn := t.fn
	for i, x := range xs {
		dst[i] = fn(x)
	}
}

// Bytes returns the live table storage of this tier in bytes (zero for
// the exact, table-free tier).
func (t *ConstMulTable) Bytes() int64 {
	return int64(len(t.lo))*4 + int64(len(t.hi))*4 + int64(len(t.tab32))*4 + int64(len(t.tab64))*8
}

// SquareTable evaluates x*x through a compiled multiplier plan; it
// implements the squarer stage. Exact plans are table-free (one native
// multiply); approximate and oracle-mode plans keep the full 2^Width
// table, int32 unless an entry overflows. Squaring depends on both halves
// of its single operand at once, so the byte-decomposed tier of
// ConstMulTable does not apply.
type SquareTable struct {
	fn     func(int64) int64
	slice  func(dst, xs []int64, shift uint)
	opMask uint64
	tab32  []int32
	tab64  []int64
}

// NewSquareTable builds the squaring table for spec (Width <= 16).
func NewSquareTable(spec arith.Multiplier) (*SquareTable, error) {
	m, err := CachedMultiplier(spec)
	if err != nil {
		return nil, err
	}
	if spec.Width > 16 {
		return nil, fmt.Errorf("kernel: square table width %d exceeds 16", spec.Width)
	}
	t := &SquareTable{opMask: m.opMask}
	if m.exact {
		opMask := m.opMask
		pm := m.prodMask
		sign := uint(spec.Width - 1)
		sx := uint(64 - 2*spec.Width)
		// Squares are sign-symmetric, so the result needs no sign flip.
		t.fn = func(x int64) int64 {
			mag, _ := signMag(uint64(x)&opMask, opMask, sign)
			return sext(mag*mag&pm, sx)
		}
		t.slice = func(dst, xs []int64, shift uint) {
			for i, x := range xs {
				mag, _ := signMag(uint64(x)&opMask, opMask, sign)
				dst[i] = sext(mag*mag&pm, sx) >> shift
			}
		}
		return t, nil
	}
	t.tab32, t.tab64 = fullProductTable(spec.Width, false, func(mag int64) int64 {
		return m.MulSigned(mag, mag)
	})
	t.fn = fullTableFunc(t.tab32, t.tab64, m.opMask)
	if t.tab32 != nil {
		tab, opMask := t.tab32, m.opMask
		t.slice = func(dst, xs []int64, shift uint) {
			for i, x := range xs {
				dst[i] = int64(tab[uint64(x)&opMask]) >> shift
			}
		}
	} else {
		tab, opMask := t.tab64, m.opMask
		t.slice = func(dst, xs []int64, shift uint) {
			for i, x := range xs {
				dst[i] = tab[uint64(x)&opMask] >> shift
			}
		}
	}
	return t, nil
}

// Square returns the bit-true square of x (interpreted in Width-bit two's
// complement). Like ConstMulTable.Mul, the full-table tier is inline.
func (t *SquareTable) Square(x int64) int64 {
	if t.tab32 != nil {
		return int64(t.tab32[uint64(x)&t.opMask])
	}
	return t.fn(x)
}

// SquareFunc returns the squaring closure itself (see MulFunc).
func (t *SquareTable) SquareFunc() func(int64) int64 { return t.fn }

// SquareSlice squares a whole signal into dst with the output shift
// applied — one call per signal with the active tier inline in the loop
// body. dst and xs may be the same slice (a same-index transform).
func (t *SquareTable) SquareSlice(dst, xs []int64, shift uint) {
	t.slice(dst, xs, shift)
}

// Bytes returns the live table storage in bytes (zero for exact specs).
func (t *SquareTable) Bytes() int64 {
	return int64(len(t.tab32))*4 + int64(len(t.tab64))*8
}

// planCache memoizes compiled plans and tables globally: design-space
// exploration rebuilds pipelines for many configurations that share stage
// settings, so each distinct plan/table is paid for once per process.
// Compiled plans are keyed by (spec, mode) because a plan freezes the
// kernel/oracle mode it was compiled under; table contents are mode-
// independent (that is the equivalence guarantee), so tables key on the
// spec alone — only the representation tier differs between modes.
var planCache struct {
	sync.Mutex
	adders map[adderPlanKey]*Adder
	mults  map[multPlanKey]*Multiplier
	cmul   map[constMulKey]*ConstMulTable
	sqr    map[arith.Multiplier]*SquareTable
	proj   map[projKey]ProjTable
}

type adderPlanKey struct {
	spec    arith.Adder
	enabled bool
}

type multPlanKey struct {
	spec    arith.Multiplier
	enabled bool
}

type constMulKey struct {
	spec  arith.Multiplier
	coeff int64
}

// projKey identifies one wiring-chain projection (see buildChainProj):
// the product it projects plus the consuming chain adder's width,
// approximated-LSB count, the tap's subtract polarity and whether the
// term carries the rounding bit (AMA5) or truncates (AMA4).
type projKey struct {
	spec  arith.Multiplier
	coeff int64
	w, k  int
	neg   bool
	round bool
}

// Stats is the global cache accounting CacheStats returns: entry counts
// per cache and live table bytes per representation tier. Compiled plans
// hold no tables (their state is a few masks and closures), so TableBytes
// is the process's whole kernel working set.
type Stats struct {
	Adders       int
	Multipliers  int
	ConstTables  int
	SquareTables int
	ChainProjs   int
	// SubProductBytes is the storage of the decomposed (two 256-entry
	// sub-product tables) tier; FullTableBytes covers the int32/int64 full
	// tables (oracle mode and approximately-combined plans);
	// ChainProjBytes the wiring-chain projection tables (uint16 entries
	// where every term fits — all k >= 16 chains — uint32 otherwise).
	SubProductBytes int64
	FullTableBytes  int64
	ChainProjBytes  int64
	// TableBytes is the total live table storage.
	TableBytes int64
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
		sub := int64(len(t.lo))*4 + int64(len(t.hi))*4
		st.SubProductBytes += sub
		st.FullTableBytes += t.Bytes() - sub
	}
	for _, t := range planCache.sqr {
		st.FullTableBytes += t.Bytes()
	}
	for _, p := range planCache.proj {
		st.ChainProjBytes += p.Bytes()
	}
	st.TableBytes = st.SubProductBytes + st.FullTableBytes + st.ChainProjBytes
	return st
}

// DropCaches empties the global plan and table caches. Existing plan and
// table pointers remain valid (entries are immutable); only sharing with
// future lookups is lost. It exists for cold-cache benchmarks and cache
// accounting tests. Fresh empty maps are installed (not nil) so builders
// racing a drop — the table fills run outside the lock — insert into a
// live map instead of panicking.
func DropCaches() {
	planCache.Lock()
	defer planCache.Unlock()
	planCache.adders = make(map[adderPlanKey]*Adder)
	planCache.mults = make(map[multPlanKey]*Multiplier)
	planCache.cmul = make(map[constMulKey]*ConstMulTable)
	planCache.sqr = make(map[arith.Multiplier]*SquareTable)
	planCache.proj = make(map[projKey]ProjTable)
}

// CachedAdder returns a shared compiled plan for spec. Plans are immutable
// after compilation, so sharing is safe.
func CachedAdder(spec arith.Adder) (*Adder, error) {
	key := adderPlanKey{spec, Enabled()}
	planCache.Lock()
	defer planCache.Unlock()
	if planCache.adders == nil {
		planCache.adders = make(map[adderPlanKey]*Adder)
	}
	if ad, ok := planCache.adders[key]; ok {
		return ad, nil
	}
	ad, err := compileAdderMode(spec, key.enabled)
	if err != nil {
		return nil, err
	}
	planCache.adders[key] = ad
	return ad, nil
}

// CachedMultiplier returns a shared compiled plan for spec.
func CachedMultiplier(spec arith.Multiplier) (*Multiplier, error) {
	key := multPlanKey{spec, Enabled()}
	planCache.Lock()
	defer planCache.Unlock()
	if planCache.mults == nil {
		planCache.mults = make(map[multPlanKey]*Multiplier)
	}
	if m, ok := planCache.mults[key]; ok {
		return m, nil
	}
	m, err := compileMultiplierMode(spec, key.enabled)
	if err != nil {
		return nil, err
	}
	planCache.mults[key] = m
	return m, nil
}

// CachedConstMulTable returns a shared, memoized table for (spec, c). The
// build runs outside the cache lock so cold-table builds do not stall
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
// with the same out-of-lock fill as CachedConstMulTable.
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
