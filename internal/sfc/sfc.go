// Package sfc implements allocation-free space-filling-curve codecs for
// 2D and 3D integer lattices: Morton (Z-order) by bit interleave and
// Hilbert by the rotation algorithm (2D) and Skilling's Gray-code
// transpose algorithm (3D). The geometric mapping strategies use the
// curve index as a locality-preserving linear order over task and
// processor coordinates: points close on the curve are close on the
// lattice, and (for Hilbert) consecutive curve indices are always
// lattice neighbors.
//
// All codecs are pure bit manipulation on the arguments — no heap
// traffic, no global state — so they are trivially deterministic and
// safe to call from parallel kernels. The zero-alloc contract is pinned
// statically by topolint's hotalloc analyzer (//lint:hotpath) and
// dynamically by TestCodecsZeroAlloc.
package sfc

// Coordinate-bit capacity of each codec: a 2D codec consumes two bits of
// index per order step, a 3D codec three.
const (
	// MaxOrder2 is the maximum per-axis bit width of the 2D codecs
	// (indices occupy up to 62 bits).
	MaxOrder2 = 31
	// MaxOrder3 is the maximum per-axis bit width of the 3D codecs
	// (indices occupy up to 63 bits).
	MaxOrder3 = 21
)

// spread2 spaces the low 32 bits of v one slot apart:
// bit i moves to bit 2i.
func spread2(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compact2 inverts spread2: bit 2i moves to bit i.
func compact2(x uint64) uint32 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return uint32(x)
}

// spread3 spaces the low 21 bits of v two slots apart:
// bit i moves to bit 3i.
func spread3(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x001f00000000ffff
	x = (x | x<<16) & 0x001f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact3 inverts spread3: bit 3i moves to bit i.
func compact3(x uint64) uint32 {
	x &= 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x001f0000ff0000ff
	x = (x | x>>16) & 0x001f00000000ffff
	x = (x | x>>32) & 0x00000000001fffff
	return uint32(x)
}

// MortonEncode2 interleaves x and y into the Z-order index
// y31 x31 ... y1 x1 y0 x0 (x contributes the low bit of each pair).
//
//lint:hotpath curve encode kernel: pure bit interleave, called per task/processor in the geometric strategies; must stay allocation-free
func MortonEncode2(x, y uint32) uint64 {
	return spread2(x) | spread2(y)<<1
}

// MortonDecode2 inverts MortonEncode2.
//
//lint:hotpath curve decode kernel: pure bit deinterleave; must stay allocation-free
func MortonDecode2(d uint64) (x, y uint32) {
	return compact2(d), compact2(d >> 1)
}

// MortonEncode3 interleaves the low 21 bits of x, y, and z into the 3D
// Z-order index (x contributes the low bit of each triple).
//
//lint:hotpath curve encode kernel: pure bit interleave, called per task/processor in the geometric strategies; must stay allocation-free
func MortonEncode3(x, y, z uint32) uint64 {
	return spread3(x) | spread3(y)<<1 | spread3(z)<<2
}

// MortonDecode3 inverts MortonEncode3.
//
//lint:hotpath curve decode kernel: pure bit deinterleave; must stay allocation-free
func MortonDecode3(d uint64) (x, y, z uint32) {
	return compact3(d), compact3(d >> 1), compact3(d >> 2)
}

// HilbertEncode2 returns the Hilbert index of (x, y) on the 2^order ×
// 2^order lattice, by the classic top-down rotation algorithm: at each
// scale the quadrant contributes its Gray-coded rank and the remaining
// low bits are reflected/transposed into the sub-curve's frame.
// Requires 0 <= order <= MaxOrder2 and x, y < 1<<order.
//
//lint:hotpath curve encode kernel: fixed-trip bit loop, called per task/processor in the geometric strategies; must stay allocation-free
func HilbertEncode2(order int, x, y uint32) uint64 {
	if order <= 0 {
		return 0
	}
	n1 := uint32(1)<<order - 1
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s != 0 {
			rx = 1
		}
		if y&s != 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		if ry == 0 {
			if rx == 1 {
				// Reflect over the full lattice: only bits below s are
				// read after this step, and their complement is exactly
				// the sub-square reflection.
				x = n1 - x
				y = n1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// HilbertDecode2 inverts HilbertEncode2, building (x, y) bottom-up from
// the index's bit pairs. Requires 0 <= order <= MaxOrder2 and
// d < 1<<(2*order).
//
//lint:hotpath curve decode kernel: fixed-trip bit loop; must stay allocation-free
func HilbertDecode2(order int, d uint64) (x, y uint32) {
	if order <= 0 {
		return 0, 0
	}
	t := d
	for s := uint32(1); s != uint32(1)<<order; s <<= 1 {
		rx := uint32(t>>1) & 1
		ry := uint32(t)&1 ^ rx
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t >>= 2
	}
	return x, y
}

// HilbertEncode3 returns the Hilbert index of (x, y, z) on the 2^order
// cube, via Skilling's transpose algorithm (Skilling 2004): undo the
// per-level rotations axis by axis, Gray-encode across axes, then
// interleave the transposed axes with axis 0 most significant.
// Requires 0 <= order <= MaxOrder3 and x, y, z < 1<<order.
//
//lint:hotpath curve encode kernel: fixed-trip bit loops over a stack array; must stay allocation-free
func HilbertEncode3(order int, x, y, z uint32) uint64 {
	if order <= 0 {
		return 0
	}
	X := [3]uint32{x, y, z}
	// Inverse undo.
	for q := uint32(1) << (order - 1); q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < 3; i++ {
			if X[i]&q != 0 {
				X[0] ^= p
			} else {
				t := (X[0] ^ X[i]) & p
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	// Gray encode.
	X[1] ^= X[0]
	X[2] ^= X[1]
	t := uint32(0)
	for q := uint32(1) << (order - 1); q > 1; q >>= 1 {
		if X[2]&q != 0 {
			t ^= q - 1
		}
	}
	X[0] ^= t
	X[1] ^= t
	X[2] ^= t
	// Interleave the transpose: bit k of the index triple takes
	// (X[0]_k, X[1]_k, X[2]_k), axis 0 most significant.
	var d uint64
	for k := order - 1; k >= 0; k-- {
		d = d<<3 |
			uint64(X[0]>>uint(k)&1)<<2 |
			uint64(X[1]>>uint(k)&1)<<1 |
			uint64(X[2]>>uint(k)&1)
	}
	return d
}

// HilbertDecode3 inverts HilbertEncode3. Requires 0 <= order <=
// MaxOrder3 and d < 1<<(3*order).
//
//lint:hotpath curve decode kernel: fixed-trip bit loops over a stack array; must stay allocation-free
func HilbertDecode3(order int, d uint64) (x, y, z uint32) {
	if order <= 0 {
		return 0, 0, 0
	}
	// De-interleave into the transpose.
	var X [3]uint32
	for k := 0; k < order; k++ {
		b := d >> uint(3*k)
		X[0] |= uint32(b>>2&1) << uint(k)
		X[1] |= uint32(b>>1&1) << uint(k)
		X[2] |= uint32(b&1) << uint(k)
	}
	// Gray decode by H ^ (H/2).
	t := X[2] >> 1
	X[2] ^= X[1]
	X[1] ^= X[0]
	X[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != uint32(1)<<order; q <<= 1 {
		p := q - 1
		for i := 2; i >= 0; i-- {
			if X[i]&q != 0 {
				X[0] ^= p
			} else {
				t := (X[0] ^ X[i]) & p
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	return X[0], X[1], X[2]
}
