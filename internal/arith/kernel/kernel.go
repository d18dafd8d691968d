package kernel

// mask returns the w-bit word mask, matching package arith.
func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<w - 1
}

// signMag splits a masked operand into its magnitude and an all-ones flip
// mask (zero for non-negative operands), branch-free: the operand's sign
// is data-dependent on the signal, so a branch would mispredict roughly
// every other sample. sign is the operand's sign-bit position (width-1).
// The minimum value maps to its own magnitude (e.g. 0x8000 at width 16),
// exactly like the two's-complement negation in the reference models.
func signMag(u, opMask uint64, sign uint) (mag, sgn uint64) {
	sgn = -(u >> sign)
	mag = ((u ^ (sgn & opMask)) + (sgn & 1)) & opMask
	return mag, sgn
}

// sext sign-extends the low 64-s bits of v — arith.ToSigned without its
// data-dependent branch, for the product-slicing hot paths.
func sext(v uint64, s uint) int64 { return int64(v<<s) >> s }
