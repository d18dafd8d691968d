// Package approx provides the elementary approximate arithmetic cell
// library that XBioSiP composes its processing units from: the accurate and
// approximate 1-bit full adders of Gupta et al. (IMPACT, ISLPED'11 /
// TCAD'13) and the accurate and approximate 2x2 multiplier modules of
// Kulkarni et al. (VLSID'11) and Rehman et al. (ICCAD'16).
//
// Each cell has two faces:
//
//   - a behavioural model (a truth table evaluated bit-true), used by the
//     word-level models in package oracle, the compiled kernels and the
//     netlist simulator;
//   - a physical characterisation (area, delay, power, energy) taken from the
//     paper's Table 1, obtained there by synthesising the cells with a
//     Synopsys 65nm ASIC flow. The characterisation drives every synthesis
//     report and energy number in this repository.
//
// The adder truth tables for ApproxAdd1 (AMA1), ApproxAdd2 (AMA2) and
// ApproxAdd5 (AMA5: Sum=B, Cout=A, pure wiring) follow the published tables
// exactly; ApproxAdd3 and ApproxAdd4 are reconstructions documented on their
// declarations (the defining structure — AMA3 combines AMA1's carry with
// AMA2's Sum=NOT Cout trick, AMA4 reads Cout straight off input A — is
// preserved). AppMultV1 is the Kulkarni multiplier (only 3x3 wrong, yielding
// 7 instead of 9); AppMultV2 is a more aggressive reconstruction that also
// drops the a1*b0 cross partial product.
package approx
