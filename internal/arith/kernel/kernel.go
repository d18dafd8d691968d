package kernel

// mask returns the w-bit word mask, matching package arith's ToSigned.
func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<w - 1
}

// sext sign-extends the low 64-s bits of v — arith.ToSigned without its
// data-dependent branch, for the product-slicing hot paths.
func sext(v uint64, s uint) int64 { return int64(v<<s) >> s }
