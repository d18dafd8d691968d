package netlist

import "github.com/xbiosip/xbiosip/internal/approx"

// This file holds the word-parallel cell evaluator behind the lane-packed
// activity path (see runActivityLanes): every input and output is a uint64
// whose bit l is the pin's value under stimulus lane l, and each cell's
// logic function is applied bitwise across all 64 lanes at once.
//
// The library cells get hand-derived closed forms (a full adder is three
// XOR/AND words, the wiring cells are free); any other truth-table entry
// falls back to a generic sum-of-products over the cell's Eval, which is
// what the closed forms are exhaustively tested against.

// evalCellLanes computes the outputs of a cell across 64 lanes at once:
// for every lane l, bit l of out[j] is the cell's output j on bit l of
// the inputs. It is the one definition of cell logic the activity engine
// and the folding Builder (foldCell) evaluate through.
func evalCellLanes(c *Cell, in, out *[4]uint64) {
	switch c.Kind {
	case CellFA:
		a, b, cin := in[0], in[1], in[2]
		switch c.Add {
		case approx.AccAdd:
			out[0] = a ^ b ^ cin
			out[1] = a&b | cin&(a^b)
		case approx.ApproxAdd1:
			// Exact except pattern A=0,B=1,Cin=0: Sum 1->0, Cout 0->1.
			bad := ^a & b & ^cin
			out[0] = (a ^ b ^ cin) &^ bad
			out[1] = a&b | cin&(a^b) | bad
		case approx.ApproxAdd2:
			// Sum is the complement of the exact Cout.
			cout := a&b | cin&(a^b)
			out[0] = ^cout
			out[1] = cout
		case approx.ApproxAdd3:
			// AMA1's carry, AMA2's Sum = NOT Cout.
			cout := a&b | cin&(a^b) | ^a&b&^cin
			out[0] = ^cout
			out[1] = cout
		case approx.ApproxAdd4:
			out[0] = ^a
			out[1] = a
		case approx.ApproxAdd5:
			out[0] = b
			out[1] = a
		default:
			genericFALanes(c.Add, in, out)
		}
	case CellMult2:
		a0, a1, b0, b1 := in[0], in[1], in[2], in[3]
		switch c.Mul {
		case approx.AccMult:
			// Exact 2x2: 4*a1b1 + 2*(a1b0 + a0b1) + a0b0.
			hl, lh := a1&b0, a0&b1
			hh, c1 := a1&b1, hl&lh
			out[0] = a0 & b0
			out[1] = hl ^ lh
			out[2] = hh ^ c1
			out[3] = hh & c1
		case approx.AppMultV1:
			// Kulkarni: the carry into bit 2 is dropped (3x3 = 7).
			out[0] = a0 & b0
			out[1] = a1&b0 | a0&b1
			out[2] = a1 & b1
			out[3] = 0
		case approx.AppMultV2:
			// V1 with the a1*b0 cross partial product dropped too.
			out[0] = a0 & b0
			out[1] = a0 & b1
			out[2] = a1 & b1
			out[3] = 0
		default:
			genericMultLanes(c.Mul, in, out)
		}
	case CellInv:
		out[0] = ^in[0]
	case CellReg:
		out[0] = in[0]
	}
}

// genericFALanes evaluates any full-adder truth table as a sum of
// products over the 8 input minterms — the mechanical lane translation of
// AdderKind.Eval, used for kinds without a hand-derived closed form and as
// the test reference for the ones with.
func genericFALanes(k approx.AdderKind, in, out *[4]uint64) {
	out[0], out[1] = 0, 0
	for idx := uint8(0); idx < 8; idx++ {
		sum, cout := k.Eval(idx>>2&1, idx>>1&1, idx&1)
		if sum == 0 && cout == 0 {
			continue
		}
		m := minterm(in[0], idx>>2&1) & minterm(in[1], idx>>1&1) & minterm(in[2], idx&1)
		if sum != 0 {
			out[0] |= m
		}
		if cout != 0 {
			out[1] |= m
		}
	}
}

// genericMultLanes evaluates any 2x2 multiplier truth table as a sum of
// products over the 16 input minterms (see genericFALanes).
func genericMultLanes(k approx.MultKind, in, out *[4]uint64) {
	out[0], out[1], out[2], out[3] = 0, 0, 0, 0
	for idx := uint8(0); idx < 16; idx++ {
		a := idx >> 2 & 3
		b := idx & 3
		p := k.Eval(a, b)
		if p == 0 {
			continue
		}
		m := minterm(in[0], a&1) & minterm(in[1], a>>1) & minterm(in[2], b&1) & minterm(in[3], b>>1)
		for j := 0; j < 4; j++ {
			if p>>j&1 != 0 {
				out[j] |= m
			}
		}
	}
}

// minterm returns the lanes where pin w equals bit (all lanes where the
// literal is satisfied).
func minterm(w uint64, bit uint8) uint64 {
	if bit != 0 {
		return w
	}
	return ^w
}
