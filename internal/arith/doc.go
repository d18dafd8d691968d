// Package arith specifies the larger bit-width approximate arithmetic
// blocks XBioSiP builds from the elementary cells in package approx:
//
//   - Adder: an N-bit ripple-carry adder whose k least-significant cells are
//     an approximate full-adder kind (paper Fig 6);
//   - Multiplier: an NxN recursive multiplier decomposed into four N/2 x N/2
//     sub-multipliers accumulated by three 2N-bit adders, bottoming out at
//     the elementary 2x2 cells (paper Fig 7). An elementary multiplier at
//     output offset p is approximate iff p+4 <= k, and accumulation-adder
//     cells at output positions < k are approximate.
//
// The package holds the specs, their Validate and ToSigned, nothing that
// computes. Production code evaluates a spec through the compiled kernels
// of package arith/kernel and builds its hardware through package
// netlist. The bit-serial behavioural models that define both, the Go
// equivalent of the paper's MATLAB models, live in package oracle, which
// only tests import; the tests cross-validate the models bit for bit
// against the kernels and the cell-level netlist simulator, mirroring the
// paper's MATLAB/ModelSim cross-validation loop (paper Fig 9).
//
// Signedness: additions are two's-complement and flow through the RCA
// unchanged; multiplications are sign-magnitude around the unsigned
// recursive core, the conventional arrangement for approximate-multiplier
// evaluation. Products are truncated to 2N bits.
package arith
