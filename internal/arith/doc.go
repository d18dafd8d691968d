// Package arith implements bit-true behavioural models of the larger
// bit-width approximate arithmetic blocks XBioSiP builds from the elementary
// cells in package approx:
//
//   - Adder: an N-bit ripple-carry adder whose k least-significant cells are
//     an approximate full-adder kind (paper Fig 6);
//   - Multiplier: an NxN recursive multiplier decomposed into four N/2 x N/2
//     sub-multipliers accumulated by three 2N-bit adders, bottoming out at
//     the elementary 2x2 cells (paper Fig 7). An elementary multiplier at
//     output offset p is approximate iff p+4 <= k, and accumulation-adder
//     cells at output positions < k are approximate.
//
// These are the Go equivalent of the paper's MATLAB behavioural models; the
// test suite cross-validates them bit-for-bit against the cell-level netlist
// simulator in package netlist, mirroring the paper's MATLAB/ModelSim
// cross-validation loop (paper Fig 9).
//
// Signedness: additions are two's-complement and flow through the RCA
// unchanged; multiplications are sign-magnitude around the unsigned
// recursive core, the conventional arrangement for approximate-multiplier
// evaluation. Products are truncated to 2N bits.
package arith
