package kernel

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith"
	"github.com/xbiosip/xbiosip/internal/oracle"
)

// TestTableTierSelection pins the representation tier each plan class
// gets: an exact plan gets no const-mul table (NewConstMulTable refuses
// it: its chains fuse), and every other plan — an exactly combined root
// as much as an approximately combined one — keeps a full int32 table,
// with Mul bit-identical to the reference.
func TestTableTierSelection(t *testing.T) {
	cases := []struct {
		name string
		spec arith.Multiplier
		full bool // expect a full table
	}{
		{"exact", arith.Multiplier{Width: 16, ApproxLSBs: 0, Mult: approx.AccMult, Add: approx.AccAdd}, false},
		{"exact-kinds", arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AccMult, Add: approx.AccAdd}, false},
		{"exact-root", arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.AccAdd}, true},
		{"full-int32", arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range []int64{1, 31, -6} {
				tab, err := NewConstMulTable(tc.spec, c)
				if !tc.full {
					if err == nil {
						t.Fatalf("c=%d: a const-mul table of an exact plan", c)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if tab.tab32 == nil || tab.tab64 != nil {
					t.Fatalf("c=%d: not an int32 full table (int64 %v)", c, tab.tab64 != nil)
				}
				for i := 0; i < 1<<16; i++ {
					x := arith.ToSigned(uint64(i), 16)
					if got, want := tab.Mul(x), oracle.MulSigned(tc.spec, x, c); got != want {
						t.Fatalf("c=%d: Mul(%d) = %d, reference %d", c, x, got, want)
					}
				}
			}
		})
	}
}

// TestFullProductTableOverflowFallback checks full product tables at the
// int32 edge. A 16-bit product is a 32-bit core, sign-extended and then
// negated for a negative operand or coefficient, so every entry lies in
// [-2^31, 2^31] and only +2^31 leaves int32. A const-mul table's tier is
// fixed by a bound before it holds any entry (constFits32): where the
// bound cannot rule +2^31 out, the table falls back to int64 and must
// hold it bit-identically, both as the product of a positive operand and
// as the negated mirror of a MinInt32 product; where it can, the int32
// table holds every product, the extremes of the largest coefficient it
// admits included. A square table is always int32: its even products
// are never negated, so a MinInt32 square fits. Each case checks that
// the reference reaches the entries it names, then reads every operand
// through a fresh table against the bit-serial reference.
func TestFullProductTableOverflowFallback(t *testing.T) {
	ama4k8 := arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd4}
	ama4k31 := arith.Multiplier{Width: 16, ApproxLSBs: 31, Mult: approx.AppMultV1, Add: approx.ApproxAdd4}
	ama1k31 := arith.Multiplier{Width: 16, ApproxLSBs: 31, Mult: approx.AppMultV1, Add: approx.ApproxAdd1}
	cases := []struct {
		name   string
		spec   arith.Multiplier
		square bool  // read the spec's square table instead of coeff's
		coeff  int64 // const-mul coefficient
		edges  map[int64]int64
		want64 bool
	}{
		{"fits", ama4k8, false, 1<<15 - 1, map[int64]int64{-1 << 15: -1073710080, 1<<15 - 1: 1073676551}, false},
		{"fits-min-even", ama1k31, true, 0, map[int64]int64{1 << 14: math.MinInt32, -1 << 14: math.MinInt32, -1 << 15: math.MinInt32}, false},
		{"positive-overflow", ama4k31, false, -6, map[int64]int64{4: 1 << 31, -4: math.MinInt32}, true},
		{"negated-min-overflow", ama4k31, false, 3, map[int64]int64{4: math.MinInt32, -4: 1 << 31}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := func(x int64) int64 { return oracle.MulSigned(tc.spec, x, tc.coeff) }
			var read func(int64) int64
			var got64 bool
			if tc.square {
				ref = func(x int64) int64 { return oracle.MulSigned(tc.spec, x, x) }
				sq, err := NewSquareTable(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if sq.tab == nil {
					t.Fatal("square table is table-free, want a full int32 table")
				}
				read = sq.Square
			} else {
				tab, err := NewConstMulTable(tc.spec, tc.coeff)
				if err != nil {
					t.Fatal(err)
				}
				if tab.tab32 == nil && tab.tab64 == nil {
					t.Fatal("const-mul table has no full tier")
				}
				got64 = tab.tab64 != nil
				read = tab.Mul
			}
			if got64 != tc.want64 {
				t.Fatalf("int64 fallback %v, want %v", got64, tc.want64)
			}
			for x, want := range tc.edges {
				if p := ref(x); p != want {
					t.Fatalf("reference entry %d = %d, want %d: the case misses its edge", x, p, want)
				}
			}
			for i := 0; i < 1<<16; i++ {
				x := arith.ToSigned(uint64(i), 16)
				if got, want := read(x), ref(x); got != want {
					t.Fatalf("entry %d = %d, reference %d", x, got, want)
				}
			}
		})
	}
}

// TestCacheStatsAccounting checks the cache accessor against a known
// sequence of builds and reads from an empty cache, and that DropCaches
// empties it: allocated bytes per tier, and filled bytes that start at
// zero and grow with the magnitudes reads reach.
func TestCacheStatsAccounting(t *testing.T) {
	DropCaches()
	defer DropCaches() // leave a clean slate for other tests
	spec := arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.ApproxAdd5}
	tab, err := CachedConstMulTable(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := CachedSquareTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	// An exactly combined root keeps a full table too; nothing reads it.
	exactRoot := arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV1, Add: approx.AccAdd}
	if _, err := CachedConstMulTable(exactRoot, 7); err != nil {
		t.Fatal(err)
	}
	st := CacheStats()
	if st.ConstTables != 2 || st.SquareTables != 1 {
		t.Fatalf("stats count %d const / %d square tables, want 2/1", st.ConstTables, st.SquareTables)
	}
	wantFull := int64(3 * (1 << 16) * 4) // two int32 product tables + one int32 square table
	if st.FullTableBytes != wantFull {
		t.Fatalf("FullTableBytes = %d, want %d", st.FullTableBytes, wantFull)
	}
	if st.TableBytes != st.FullTableBytes+st.ChainProjBytes {
		t.Fatalf("TableBytes = %d, parts sum to %d", st.TableBytes, st.FullTableBytes+st.ChainProjBytes)
	}
	if st.FilledBytes != 0 {
		t.Fatalf("FilledBytes = %d before any read, want 0", st.FilledBytes)
	}
	// |300| fills the product table's magnitudes below 512, 2*512-1
	// entries; -32,768 fills the whole square table.
	tab.Mul(-300)
	sq.Square(-32768)
	if st := CacheStats(); st.FilledBytes != (2*512-1)*4+(1<<16)*4 {
		t.Fatalf("FilledBytes = %d after Mul and Square, want %d", st.FilledBytes, (2*512-1)*4+(1<<16)*4)
	}
	// An AMA5 chain reads its first tap through a new projection and its
	// last through the cached product table; Run over |x| <= 1000 grows
	// both to 1024.
	ad, err := CachedAdder(arith.Adder{Width: 32, ApproxLSBs: 8, Kind: approx.ApproxAdd5})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ad.NewChain(spec, []ChainOp{{Coeff: 3, Lag: 0}, {Coeff: 7, Lag: 1}})
	if err != nil {
		t.Fatal(err)
	}
	xs := []int64{5, 1000, -20}
	runFromZeros(chain, make([]int64, len(xs)), xs, 0, 32)
	st = CacheStats()
	if st.ChainProjs != 1 || st.ConstTables != 2 {
		t.Fatalf("chain built %d projections and %d const tables, want 1 and 2", st.ChainProjs, st.ConstTables)
	}
	wantProj := st.ChainProjBytes / (1 << 16) * (2*1024 - 1)
	if want := (2*1024-1)*4 + (1<<16)*4 + wantProj; st.FilledBytes != want {
		t.Fatalf("FilledBytes = %d after Run, want %d", st.FilledBytes, want)
	}
	if st.FilledBytes > st.TableBytes {
		t.Fatalf("FilledBytes %d exceeds TableBytes %d", st.FilledBytes, st.TableBytes)
	}
	DropCaches()
	if st := CacheStats(); st.ConstTables != 0 || st.TableBytes != 0 || st.FilledBytes != 0 || st.Adders != 0 {
		t.Fatalf("DropCaches left %+v", st)
	}
}

// TestPlanCacheConcurrentColdBuild hammers the global plan/table cache
// with concurrent cold builds of the same (spec, coeff) from many
// goroutines (run under -race in CI): every caller must receive the same
// inserted-first instance, for tables, squares, plans and chain
// projections alike. Each goroutine then runs a chain and the squarer
// over those shared, still empty tables on a signal of its own — the
// amplitude ranges overlap, so the goroutines race to fill the same
// magnitudes — and checks every output against the enumeration.
func TestPlanCacheConcurrentColdBuild(t *testing.T) {
	DropCaches()
	defer DropCaches()
	spec := arith.Multiplier{Width: 16, ApproxLSBs: 12, Mult: approx.AppMultV2, Add: approx.ApproxAdd3}
	adderSpec := arith.Adder{Width: 32, ApproxLSBs: 12, Kind: approx.ApproxAdd5}
	// The AMA5 chain projects its first three taps — the first and third
	// through the projection built below — and reads the last raw.
	ops := []ChainOp{{Coeff: 12345, Lag: 0, Sub: true}, {Coeff: 3, Lag: 1}, {Coeff: 12345, Lag: 2, Sub: true}, {Coeff: 6, Lag: 3}}
	const goroutines = 16
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		tabs  = map[*ConstMulTable]bool{}
		sqrs  = map[*SquareTable]bool{}
		adds  = map[*Adder]bool{}
		projs []ProjTable
	)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			defer runSharedTables(t, g, spec, adderSpec, ops)
			tab, err := CachedConstMulTable(spec, 12345)
			if err != nil {
				t.Error(err)
				return
			}
			sq, err := CachedSquareTable(spec)
			if err != nil {
				t.Error(err)
				return
			}
			ad, err := CachedAdder(adderSpec)
			if err != nil {
				t.Error(err)
				return
			}
			m, err := CachedMultiplier(spec)
			if err != nil {
				t.Error(err)
				return
			}
			proj := cachedChainProj(m, 12345, 32, 12, true)
			mu.Lock()
			tabs[tab] = true
			sqrs[sq] = true
			adds[ad] = true
			dup := false
			for _, q := range projs {
				if q.Same(proj) {
					dup = true
					break
				}
			}
			if !dup {
				projs = append(projs, proj)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(tabs) != 1 || len(sqrs) != 1 || len(adds) != 1 || len(projs) != 1 {
		t.Fatalf("concurrent cold builds returned %d/%d/%d/%d distinct instances, want 1 each (first insert wins)",
			len(tabs), len(sqrs), len(adds), len(projs))
	}
}

// runSharedTables is goroutine g of TestPlanCacheConcurrentColdBuild
// reading the shared tables: the chain in 16-sample blocks continued from
// their history (zeros before the signal), the squarer per sample and per
// block, over samples of amplitude up to 2,000*(g+1) (the last goroutine
// adds -32,768), each output checked against the enumeration.
func runSharedTables(t *testing.T, g int, spec arith.Multiplier, adderSpec arith.Adder, ops []ChainOp) {
	ad, err := CachedAdder(adderSpec)
	if err != nil {
		t.Error(err)
		return
	}
	chain, err := ad.NewChain(spec, ops)
	if err != nil {
		t.Error(err)
		return
	}
	sq, err := CachedSquareTable(spec)
	if err != nil {
		t.Error(err)
		return
	}
	rng := rand.New(rand.NewSource(int64(g)))
	amp := int64(2000 * (g + 1))
	xs := make([]int64, 96)
	for i := range xs {
		xs[i] = rng.Int63n(2*amp+1) - amp
	}
	if g == 15 {
		xs[50] = -32768
	}
	dst := make([]int64, len(xs))
	pad := historyLen(chain)
	padded := zeroPadded(xs, pad)
	for lo := 0; lo < len(xs); lo += 16 {
		chain.Run(dst[lo:lo+16], padded[:pad+lo+16], pad+lo, 3, 29)
	}
	sqs := make([]int64, len(xs))
	sq.SquareSlice(sqs, xs, 1)
	fold := scalarFold(adderSpec, spec, ops, xs, 3, 29)
	for i, x := range xs {
		if want := fold[i]; dst[i] != want {
			t.Errorf("goroutine %d: Run[%d] = %d, enumeration %d", g, i, dst[i], want)
			return
		}
		want := oracle.MulSigned(spec, x, x)
		if sqs[i] != want>>1 || sq.Square(x) != want {
			t.Errorf("goroutine %d: square of %d = %d (slice %d), enumeration %d", g, x, sq.Square(x), sqs[i], want)
			return
		}
	}
}

// TestSquareTableMatchesMultiplier pins a freshly built (uncached) square
// table of a spec TestTablesMatchReference does not sweep against the
// bit-serial square it enumerates.
func TestSquareTableMatchesMultiplier(t *testing.T) {
	m := arith.Multiplier{Width: 16, ApproxLSBs: 8, Mult: approx.AppMultV2, Add: approx.ApproxAdd5}
	tab, err := NewSquareTable(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 500; i++ {
		x := int64(int16(rng.Uint64()))
		if got, want := tab.Square(x), oracle.MulSigned(m, x, x); got != want {
			t.Fatalf("Square(%d) = %d, want %d", x, got, want)
		}
	}
	if tab.Square(0) != 0 {
		t.Error("Square(0) != 0")
	}
}
