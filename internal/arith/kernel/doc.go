// Package kernel compiles arith.Adder and arith.Multiplier configurations
// into closed-form, allocation-free, word-parallel evaluation plans. The
// bit-serial models in package arith remain the reference oracle — every
// plan is required (and exhaustively tested) to be bit-identical to them —
// but simulation-heavy paths (package dsp and everything above it) evaluate
// through compiled kernels, which turns the per-sample cost of an
// approximate stage from O(k) elementary-cell table walks into O(1) word
// operations.
//
// # Adder closed forms
//
// A compiled adder replaces the k-cell approximate ripple region of
// arith.Adder.AddCarry with one of four strategies picked at compile time:
//
//   - Exact region (k = 0 or AccAdd): one native machine add. The carry out
//     is the bit Width of the (Width+1)-bit sum, reproducing the reference
//     formula exactly (including its Width = 64 behaviour, where the
//     reference drops the final carry).
//
//   - AMA4 / AMA5 (pure wiring): AMA5 computes Sum = B and Cout = A per
//     cell, AMA4 computes Sum = NOT A and Cout = A. Neither output depends
//     on the incoming carry, so the whole approximate region is two masks:
//     the low k sum bits are B&mask(k) (resp. ^A&mask(k)) and the carry
//     entering the exact upper region is simply bit k-1 of A.
//
//   - AMA2 (exact carry chain): AMA2 only approximates Sum — its Cout truth
//     table is the exact majority function. Every carry in the chain
//     therefore equals the carry of ordinary binary addition, so the carries
//     fall out of the native-add XOR trick: with x = a + b + cin, the
//     carry-in of bit i is bit i of a^b^x, and the carry-out of cell i is
//     bit i+1 of that vector (the final carry-out for the top cell). The
//     approximate sum bits are the complement of the carry-out vector
//     (Sum = NOT Cout), and the exact upper bits are taken from x directly.
//
//   - AMA1 / AMA3 (byte-wide chunk LUT): these cells have genuinely
//     input-dependent approximate carries (Cout = B OR (A AND Cin)), so the
//     region is evaluated 8 cells at a time through a precomputed chunk
//     table. The table is indexed by cin<<16 | aByte<<8 | bByte (2^17
//     entries) and each uint32 entry packs the 8 sum bits in bits 0..7 and
//     the carry-out of every cell j in bit 8+j, so a partial chunk of r < 8
//     cells reads its exit carry from bit 7+r. A 16-bit approximate region
//     costs two lookups instead of sixteen cell evaluations. One table is
//     512 KiB; tables are built lazily once per cell kind that needs them
//     (only AMA1 and AMA3 in the current library), so the worst-case
//     resident budget is 1 MiB. The chunk path is also the generic fallback
//     for any future cell kind without a dedicated closed form.
//
// # Multiplier plans
//
// A compiled multiplier freezes the recursion of arith.Multiplier.mulRec
// into a static plan tree: subtrees whose output lane lies entirely at or
// above k collapse to a native multiply, 2x2 leaves evaluate their
// elementary cell table, and each partial-product accumulation node holds a
// pre-compiled adder kernel for its (width, approximated-LSBs) slice. This
// also removes the reference model's per-accumulation garbage — addAt
// constructs a fresh arith.Adder and re-derives masks on every call, while
// the plan hoists all config-dependent state to compile time and evaluates
// with zero allocations.
//
// # Coefficient and squaring tables: the representation tiers
//
// FIR taps only ever multiply the signal by small fixed coefficients
// (LPF 1..6, HPF -1/31, DER +-1/+-2), so ConstMulTable captures the
// products of one (coefficient, multiplier-config) pair once and the
// whole approximate multiply becomes one or two cache-resident loads.
// The representation is tiered by what the compiled plan allows —
// shared sub-product tables, then an int32 full table, then int64, with
// the oracle build behind them all:
//
//   - Exact plans carry no table at all: the product is a native multiply
//     behind a branch-free sign-magnitude wrapper, and a fully exact FIR
//     chain fuses further into plain multiply-accumulate (see below).
//     Every k = 0 stage of a design therefore costs zero table bytes.
//
//   - Shared sub-product tier: when the plan's top-level decomposition is
//     exact (both accumulation adders of the composite root reduce to
//     native addition), the full table collapses to two 2^(Width/2)-entry
//     packed tables — each root sub-product depends on only one half of
//     the operand — plus the compiled combining adder. 2 KiB instead of
//     512 KiB at the pipeline's 16-bit width, and ~256x cheaper to build
//     (4 x 2^8 child evaluations instead of 2^16).
//
//   - int32 full tier: plans whose root combines approximately keep the
//     full 2^Width table — re-running the approximate combining per
//     lookup costs more than the load it replaces — but build it through
//     the same decomposition (two compiled accumulations per entry, the
//     two signs of one magnitude sharing one core evaluation) and store
//     int32 entries: half the bytes of the previous int64 representation.
//     The build checks every entry; a (spec, coeff) pair whose product
//     overflows int32 promotes to
//
//   - int64 full tier: the overflow fallback, and
//
//   - the oracle: in XBIOSIP_NO_KERNELS mode plans have no decomposition,
//     so tables build bit-serially through the reference models (contents
//     are mode-independent — that is the equivalence guarantee — only the
//     build path and resident tier differ).
//
// SquareTable squares depend on both halves of their single operand at
// once, so the sub-product tier does not apply: exact specs are
// table-free, everything else keeps an int32 (or int64) full table.
//
// # Chain projections, sliding windows, MAC fusion and lazy raw tables
//
// The batched chains layer two more compiled projections on top of the
// tiers. For the wiring adders (AMA4/AMA5) the closed form sums, per tap,
// only an upper slice of the product plus a carry bit; buildChainProj
// bakes that whole term into a 2^Width projection table per
// (coefficient, polarity, k) — uint16 entries whenever every term fits,
// which k >= 16 guarantees (halving the footprint per chain polarity),
// uint32 otherwise — making each projected tap one load and one add.
// And because those terms add in plain modular arithmetic, a long run of
// taps sharing one projection over contiguous lags — the 32-tap high-pass
// shape — collapses to an O(1) sliding window per sample (add the
// entering term, drop the leaving one, correct the few differing taps).
// Fully exact chains fuse the other way: with an exact accumulator and
// exact in-range products, sliced products equal plain integer products
// and native accumulation is associative, so the whole chain is one
// multiply-accumulate loop with the coefficients' signs folded in.
//
// Projections build straight from the compiled plan's product closure
// (productFn, sign-halved, with the root's accumulation adders
// devirtualized), so a projected tap never needs its raw 2^Width table.
// NewChain exploits that by materializing raw ConstMulTables only for
// the taps its strategy actually reads products from: every tap of the
// generic/native/chunk strategies, just the boundary taps of a wiring
// chain (the AMA5 last operand / AMA4 opening accumulator), none of a
// fused chain. A batch-only workload — the design-space exploration —
// therefore never builds the interior taps' 256 KiB tables; the
// per-sample FIR path (dsp.FIR.Process) materializes its tables on first
// use instead.
//
// CacheStats reports the live bytes of every tier (and DropCaches empties
// the caches for cold-build benchmarks), so the working set is tracked
// across PRs the way ns/op is.
//
// # Batched evaluation across independent streams
//
// BatchChain (Chain.NewBatch) evaluates one compiled chain over up to
// MaxBatch = 64 independent streams per call. Every chain strategy
// computes dst[i] from xs[i-lag] with lag <= Chain.MaxLag and reads
// zeros before the signal start, so the batch runner packs each
// stream's [MaxLag history prefix | sample block] back-to-back into one
// scratch buffer, runs the chain function ONCE over the packed span,
// and unpacks only the data positions — prefix outputs are discarded
// and no data position ever reads across a stream boundary. Each tier's
// per-sample win therefore multiplies across the batch unchanged:
//
//   - fused exact chains: one multiply-accumulate loop over the whole
//     packed buffer;
//   - wiring chains (AMA4/AMA5): the O(1) sliding projection window,
//     restarted per packed region at the cost of one window refill;
//   - chunk/native/generic taps: per-tap table loads (MulSlice) swept
//     over the packed buffer instead of per-stream call overhead.
//
// The scalar Chain.Run path is the batch oracle: for any batch width
// and lane assignment, every stream's outputs are bit-identical to
// running it alone, in both kernel and XBIOSIP_NO_KERNELS modes. The
// batch layer is what the record-sharded design evaluator
// (core.Evaluator) and the multi-patient service (package serve) run
// their same-config stream groups through.
//
// # Fallback to the bit-serial oracle
//
// Setting the environment variable XBIOSIP_NO_KERNELS (to anything but
// "0") or calling SetEnabled(false) makes subsequent compilations return
// plans that delegate to the bit-serial reference implementations in
// package arith. The CI gate runs the equivalence tests and a benchmark
// smoke in both modes so the oracle path stays green; results are
// bit-identical either way, only the evaluation speed differs.
package kernel
