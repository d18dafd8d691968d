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
//     — AMA1 and AMA3 for their scalar adder, and AMA1-AMA4 for a generic
//     chain that adds through them (see below) — so the worst-case
//     resident budget is four kinds, 2 MiB. The chunk path is also the
//     generic fallback for any future cell kind without a dedicated closed
//     form.
//
// These scalar forms stay for every kind: each plan walk, table fill,
// generic chain and re-fold window adds through the compiled adder, and
// Adder.AddSigned and SubSigned are its signed operations.
//
// # Fast strategies for the traffic that exists
//
// A strategy specialized to a cell kind exists only where a workload runs
// it. The paper's designs run every stage either exact or on ApproxAdd5
// (AMA5) with AppMultV1, so two classes keep fast paths:
//
//   - AMA5 with k > 0: its projected chain, its sliding chain, its O(1)
//     integrator window and its inline row fill;
//   - exact stages: the fused MAC, the native window and the table-free
//     tier.
//
// Every other configuration — AMA1-AMA4, and a chain whose exact adder
// does not fuse to the MAC (an approximate multiplier, or a coefficient
// out of range) — runs the one generic chain, the re-fold window and full
// tables: bit-identical to the bit-serial models, and slower. A fast path
// for another kind comes back together with a workload that measures its
// win.
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
// whole approximate multiply becomes one cache-resident load. The
// representation is tiered by what the compiled plan allows:
//
//   - Exact plans carry no table at all: the product is a native multiply
//     behind a branch-free sign-magnitude wrapper, and a fully exact FIR
//     chain fuses further into plain multiply-accumulate (see below).
//     Every k = 0 stage of a design therefore costs zero table bytes.
//
//   - int32 full tier: every other plan keeps the full 2^Width table and
//     stores int32 entries whenever a bound proves every product fits
//     (see "On-demand fills"), else
//
//   - int64 full tier.
//
// A composite plan fills its table by rows from two 2^(Width/2)-entry
// sub-product tables: each root sub-product depends on only one half of
// the operand. The sub-product tables build by recursion: each root
// child's 2^(Width/2) products come through the child's own
// decomposition, its four children's smaller tables combined row by row
// (see "Row fills"), down to leaf and exact nodes, which enumerate. A
// plan with a 2-bit leaf root (Width 2) has no decomposition, so its full
// table fills through the plan walk, one magnitude at a time.
//
// # Row fills
//
// A fill of a composite plan's table runs by rows. An operand magnitude
// a = ahi·2^h + alo (h = Width/2) combines hi[ahi] and lo[alo] through
// the root's three accumulations, and every magnitude of a row shares
// ahi. So a row computes addMid's first operand hl, rounded to its upper
// slice, and the last accumulation's operand hh << Width once, and one
// loop over the row's low halves runs the three adds. For exact and AMA5
// root adders (every design the explorer reaches) that loop runs their
// closed form inline, which needs no shift: AMA5 adds b to a rounded to a
// multiple of 2^k, and exact addition is k = 0. AMA1-AMA4 call the
// compiled adders from the same loop. The consumers — a full const-mul
// tier's fillSigned and a projection's fillProj — take the products
// fillStep magnitudes at a time and write both signs of each; the minimum
// operand keeps its single negative entry. A fill may start or end inside
// a row.
//
// SquareTable squares depend on both halves of their single operand at
// once, so the row fills do not apply: exact specs are table-free,
// everything else keeps an int32 full table filled through the plan
// walk. An exact square
// is the plain square v*v of the operand v sign-extended from Width bits:
// |v| <= 2^(Width-1), so the 2*Width-bit product needs no mask and no
// sign extension.
//
// # Chain projections, sliding windows, MAC fusion and lazy raw tables
//
// The compiled chains layer two more compiled projections on top of the
// tiers. For the AMA5 adder the closed form sums, per tap before the
// last, only an upper slice of the product plus a carry bit;
// newChainProj bakes that whole term, (ub + 2^(k-1)) >> k, into a
// 2^Width projection table per (coefficient, polarity, k) — uint16
// entries whenever a bound proves every term fits (halving the footprint
// per chain polarity), uint32 otherwise — making each projected tap one
// load and one add. And because those terms add in plain modular
// arithmetic, a long run of taps sharing one projection over contiguous
// lags — the 32-tap high-pass shape — collapses to an O(1) sliding window
// per sample (add the entering term, drop the leaving one, correct the
// few differing taps).
// Fully exact chains fuse the other way: with an exact accumulator and
// exact in-range products, sliced products equal plain integer products
// and native accumulation is associative, so the whole chain is one
// multiply-accumulate loop with the coefficients' signs folded in.
//
// A fused chain is linear, so it also runs as a recurrence when that is
// cheaper. NewChain merges the taps per lag and picks the sparsest of the
// coefficients h, their first difference d1[l] = h[l] - h[l-1] and their
// second difference, counting nonzero taps plus the order's recurrence
// terms: with y the 64-bit accumulator, order 1 is
// y[i] = y[i-1] + d1·x and order 2 is v[i] = v[i-1] + d2·x,
// y[i] = y[i-1] + v[i]. The Pan-Tompkins HPF (31 taps of -1 around one
// of 31) has a first difference of 4 taps, the LPF triangle
// (1, 2, ..., 6, ..., 1) a second difference of 3, and the DER's 4 taps
// stay direct. Direct sums at p-1 (and p-2) seed the recurrence at its
// first position p. The identities hold in wrapping 64-bit arithmetic and
// the output slicing reads only the low Width bits, so every output is
// the direct sum's, bit for bit. A span too short to repay the seeds,
// such as one dsp.FIR.Process sample, runs the direct loop (see the
// passes below).
//
// # Check-free loops past the deepest lag
//
// Chain.Run starts past the chain's deepest tap lag, so every position
// reads each tap's sample inside xs, and no strategy loop tests an index:
// xs[:from] is the history. A stream's window runs from its history
// length, the tap count; a whole record runs its first positions as one
// such window over a cleared delay line (dsp.FIR.FilterInto). The fused
// MAC, the AMA5 chain in both projection tiers and the AMA5 sliding
// window read compact per-tap (lag, table) arrays that NewChain builds
// once (32 bytes a projected tap, split by projection tier, instead of a
// 120-byte chainOp and a tier branch per tap).
//
// The two AMA5 strategies evaluate a span of at least passMin positions
// (4) in passes over dst, which serves as the accumulator. Each projected tap is one small loop that adds its terms
// tab[x&m] over the span (the first writes them); the sliding window is
// one pass that carries its running sum S; each correction tap is one
// pass, and one more subtracts the majority term it replaces; a last pass
// reads the last tap's raw product and applies the AMA5 closed form and
// the output slicing. The projected terms are a modular sum, so the pass
// order changes no bit. A sample-major loop over every tap keeps its
// running sum and cursors on the stack, storing and reloading them per
// tap; each pass keeps its few live values in registers. A shorter span,
// such as one dsp.FIR.Process sample, runs the sample-major loop, since
// each pass costs a call and a reload of the span.
//
// The fused MAC runs the same way: a span of at least macPassMin
// positions (6) in passes over its direct taps (the DER), and a span
// that repays its recurrence's seeds (minSpan: the HPF from 2 positions,
// the LPF from 5) in passes over the difference taps. Each pass adds two
// taps' products over the span, and one finishing pass integrates the
// recurrence's order from the seeds (order 0 integrates nothing) and
// slices every output. A shorter span runs the direct loop.
//
// The slicing loops these strategies run over many positions — the
// finishing passes of both and the integrator's running sums below —
// compute the slicing's shifts once per call. When the slice lies inside
// the accumulator (outShift+outWidth <= w, at every pipeline stage), it
// is one multiply, which moves the slice's top bit to bit 63, and one
// arithmetic right shift. An amd64 shift by a variable count needs the
// count register, so a loop slicing with the general form's three shifts
// reloads their counts at every position. Other slicings write the raw
// accumulators and slice them through the general form afterwards
// (TestSliceShifts checks both against it).
//
// Projections fill straight from the compiled plan's products (by rows,
// see "Row fills"; productFn for exact and leaf-root plans), so a
// projected tap never needs its raw 2^Width table. NewChain exploits that
// by materializing raw ConstMulTables only for the taps its strategy
// actually reads products from: every tap of the generic chain, just the
// last operand of an AMA5 chain, none of a fused chain. Every FIR entry
// point evaluates through its chain, so no workload — exploration or
// live streams — ever builds the interior taps' 256 KiB tables.
//
// CacheStats reports the allocated and the filled bytes of every tier
// (and DropCaches empties the caches for cold-build benchmarks), so the
// working set is tracked across PRs the way ns/op is.
//
// # On-demand fills
//
// A full table — the int32/int64 ConstMulTable tiers, a SquareTable, a
// chain ProjTable — is allocated when it is created and filled on first
// read, over the operand magnitudes the reads reach: a record set
// reaches about a quarter of a 2^16-entry table. The check sits only at
// the reading entry points (Chain.Run, SquareTable.SquareSlice and
// Square); the strategy loops behind them stay one load per tap with no
// per-sample branch, and every entry, once filled, holds exactly what an
// enumeration at creation held.
//
// One coverage word per table replaces a page bitmap. Every operand a
// chain reads is either a sample of one signal or the zeros of a cleared
// delay line before it, and a fill writes both signs of each magnitude, so what is filled
// is always one interval: every entry with |x| < M. A read takes the
// largest |x| over its operands; when that reaches M it locks the
// table's mutex, fills magnitudes [M, M') with M' the next multiple of
// 256 (fillStep) capped at 2^(Width-1), and publishes M' with an atomic
// store. Readers load M atomically before they read, which orders them
// after the fill they rely on and keeps concurrent first fills race-free.
// A magnitude of 2^(Width-1) or more fills the whole table: the minimum
// operand, whose entry has no positive twin; an operand outside the
// Width-bit range, whose index wraps; and math.MinInt64, whose |x|
// overflows int64 (the magnitude is computed as an unsigned word, so it
// stays 2^63).
//
// Chain.Run covers xs[from:] only. The history before from is either
// zero or was evaluated by an earlier Run of the same chain, which
// covered it — a dsp delay line holds only inputs an earlier Run
// evaluated, or zeros after Reset and Clone. A chain keeps one word, the
// smallest coverage of its tables, so a one-sample Process pays one scan
// of one operand and one atomic load; chains without on-demand tables
// skip the check.
//
// Every tier is decided before the first fill, from a bound instead of
// the entries:
//
//   - squares are int32: a square is the sign-extended 2*Width <= 32-bit
//     core, and an even function is never negated;
//   - a const-mul full table is int32 when Width < 16 (products have at
//     most 30 bits), or when ApproxLSBs <= Width and |c| < 2^(Width-1).
//     Then the root's hh child is exact (at most 128*127 at Width 16),
//     every other child and adder output is masked to its width, and an
//     approximate adder exceeds its exact sum by less than 2^(ka+1), so
//     the core stays below 2^31 and both signs fit. Otherwise it is
//     int64;
//   - a projection is uint16 when its largest possible term fits:
//     (maxUB + 2^(k-1)) >> k <= 0xffff, where maxUB is the largest
//     w-bit pattern the tap feeds the chain. That is 2^w - 1 for a
//     subtracted tap, and 2^w - 2^z for an added one, with z =
//     min(ApproxLSBs, Width) for an AMA5 plan with a composite root and
//     z = 0 otherwise: the final accumulation of an AMA5 plan copies the
//     low bits of hh << Width, which are zero, into the product, and
//     negation keeps trailing zeros.
//
// TestTableTierBounds checks every bound against the enumerated entries
// and, over the explorer's design space, that each tier equals the one
// an enumeration at creation chose.
//
// # Sliding integrator windows
//
// The integrator (dsp.MovingSum) chains its window's ring slots through
// one adder in slot order: slot 0 opens the chain, whatever sample it
// holds, so each slot's contribution is fixed by its index. With ub a
// slot's w-bit pattern, W the window length and k the effective number
// of approximated LSBs, the chain is a modular sum of per-slot terms:
//
//   - exact: the slots themselves;
//   - AMA5: slots 0..W-2 each add ub>>k plus bit k-1 of ub, which is
//     (ub + 2^(k-1)) >> k; slot W-1 adds ub>>k and supplies the low k
//     bits.
//
// A sample written to a slot therefore changes one term, and Adder.Slide
// keeps the window in O(1) per sample on one running-sum word: S sums one
// term form over every slot (S += term(new) - term(old)), and the output
// corrects for the one special slot, read from the ring (AMA5 drops slot
// W-1's carry bit). A uint64 wrap of S does no harm, because only the low
// w-k bits of the upper sum u survive u<<k & mask(w). The running sums
// slice their outputs with the shifts computed once per call (see the
// passes above). The adder picks its window strategy when it compiles:
// the running sum for exact adders and for AMA5, the per-sample re-fold
// through Adder.AddSigned for AMA1-AMA4. Like a Chain, the strategy is
// immutable and holds no stream state, so a stream keeps only its ring,
// cursor and running sum.
//
// # Continuation by start index
//
// Chain.Run(dst, xs, from, ...) evaluates positions from..len(xs)-1 of
// the signal xs and writes position i to dst[i-from]: dst receives the
// evaluated positions and nothing else. Every strategy computes position
// i from xs[i-lag] with lag at most the deepest tap lag, and from lies
// past that lag, so xs[:from] is the history and every read lies in xs.
// A signal reaches a chain in one way, as a window of its history
// followed by new samples:
//
//   - a stream's window, its last n inputs (n the tap count) followed by
//     the next block, runs from n straight into the block's destination
//     (dsp.FIR.Block, the serve drain; dsp.FIR.Process is a one-sample
//     block);
//   - a whole record (dsp.FIR.FilterInto, the design-space exploration)
//     runs its first n positions as one such block after a cleared delay
//     line of n zeros, which is what the positions before xs[0] read, and
//     the rest from n over the record itself.
//
// The history is only read, never evaluated: evaluating the window from
// 0 and discarding the history outputs would waste, for a 24-sample
// serve frame through the Pan-Tompkins FIRs, 48 of the 120 positions
// computed (LPF 11, HPF 32, DER 5). The AMA5 sliding window seeds its
// window from the samples before from, and a fused recurrence its
// accumulators, so they continue exactly too. Because a Chain holds no
// signal state, one compiled chain serves every stream of a design.
// TestChainContinuation pins that a run over [history | block] from
// len(history) writes exactly the whole-signal run's outputs at the
// block's positions, and not one element past them, for every strategy;
// FuzzChainRun checks fuzzed tap shapes from fuzzed start indices
// against the scalar fold.
//
// # The bit-serial reference
//
// The arith models are the reference the tests call: the kernel tests
// compare every plan, table, chain and window strategy with them, the
// dsp oracles fold FIR taps and integrator windows through
// arith.Multiplier.MulSigned and arith.Adder.AddSigned/SubSigned, and
// pantompkins' TestPipelineMatchesBitSerial folds every stage of whole
// pipelines through them. Nothing switches production code onto them:
// every compiled plan is a kernel plan.
package kernel
