// Package netlist provides the cell-level hardware substrate that stands in
// for the paper's RTL + Synopsys Design Compiler flow.
//
// A Netlist is a DAG of elementary cell instances — full adders and 2x2
// multipliers from package approx, plus registers and inverters — connected
// by single-bit nets. The package offers:
//
//   - a Builder that lays out the paper's ripple-carry adders with
//     approximated LSBs (Fig 6) and recursive multipliers (Fig 7), and
//     generators built on it for the stages the paper synthesises: FIR
//     stages, moving-window integrators and the squarer. A generator
//     builds into the Builder it is given: a plain one (NewBuilder)
//     materializes every cell, a folding one (NewFoldingBuilder) partially
//     evaluates each cell as it is added, so multipliers by constant FIR
//     coefficients never exist unfolded. A folding builder also folds
//     each constant multiplier once per (spec, constant) over an input bus
//     of its own and replays that template onto every fresh operand bus it
//     multiplies by the same constant (an HPF's 32 taps take two folds),
//     adding exactly the cells and nets, in order, that folding in place
//     would;
//   - a bit-true Simulator for combinational netlists and its
//     switching-activity analysis (RunActivityStreams), the
//     stimulus-driven toggle measurement package synth weights dynamic
//     power by. The package tests also simulate one vector at a time, to
//     cross-validate the bit-serial behavioural models in package oracle
//     against their cell netlists (the Go analogue of the paper's
//     MATLAB-vs-ModelSim loop, Fig 9). The activity engine is
//     lane-packed: 64 stimulus vectors evaluate at once, every net
//     carrying a uint64 of lane values and every cell applying its logic
//     function bitwise across all lanes (classic multi-pattern gate-level
//     simulation) through a hand-derived closed form per library cell. A
//     port's lane words for a block come from one 64×64
//     bit transpose of the block's values (six rounds of masked swaps),
//     not from one shift per vector and bit. Toggle counts stay integer,
//     so the result is bit-identical to simulating one vector at a time,
//     the fold the package tests compare it with;
//   - synthesis-style optimisation passes: constant propagation by partial
//     evaluation of cell truth tables over the constant nets (this is how
//     multiplications by fixed FIR coefficients, built as constant buses,
//     collapse, exactly as a logic synthesiser would fold them) and
//     dead-cell elimination. ConstProp replays a finished netlist through
//     a folding builder, so the per-cell folding has one implementation,
//     and Optimize of a plain build equals dead-cell elimination of the
//     folded build.
//
// Physical reports (area / power / delay / energy) over netlists live in
// package synth; the process-wide cache that amortises a whole (stage,
// configuration) characterisation lives in package energy.
package netlist
