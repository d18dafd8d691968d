// Package oracle holds the bit-true reference models every equivalence
// test compares the compiled arithmetic against, the Go equivalent of the
// paper's MATLAB behavioural models (paper Fig 9), in one package that
// any test can import:
//
//   - the bit-serial adder and multiplier models over the specs of
//     package arith (AddCarry, Add, Sub, AddSigned, SubSigned, Mul,
//     MulSigned): a ripple-carry chain evaluated cell by cell through the
//     truth tables of package approx, and the recursive multiplier of
//     paper Fig 7 down to its elementary 2x2 cells;
//   - the stage datapaths folded through those models: a FIR's tap chain
//     (FIR, FIRAt), the integrator's window in slot order (MovingSum,
//     WindowAt) and the squarer (Square).
//
// Production code never imports this package; only _test.go files do,
// and the production-surface test fails for any other importer. Nothing
// here is optimized, apart from the product memo of Products, which
// changes no result: the models stay the definition the kernels are
// checked against.
//
// Signedness: additions are two's-complement and flow through the RCA
// unchanged; multiplications are sign-magnitude around the unsigned
// recursive core. Products are truncated to 2*Width bits.
package oracle
