package sfc

import "testing"

// abs1 returns |a-b| for lattice coordinates.
func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestHilbert2Golden pins the order-2 curve to the classic 4×4 Hilbert
// walk (first quadrant traversed x-first).
func TestHilbert2Golden(t *testing.T) {
	want := [][2]uint32{
		{0, 0}, {1, 0}, {1, 1}, {0, 1},
		{0, 2}, {0, 3}, {1, 3}, {1, 2},
		{2, 2}, {2, 3}, {3, 3}, {3, 2},
		{3, 1}, {2, 1}, {2, 0}, {3, 0},
	}
	for d, w := range want {
		x, y := HilbertDecode2(2, uint64(d))
		if x != w[0] || y != w[1] {
			t.Errorf("HilbertDecode2(2, %d) = (%d,%d), want (%d,%d)", d, x, y, w[0], w[1])
		}
		if got := HilbertEncode2(2, w[0], w[1]); got != uint64(d) {
			t.Errorf("HilbertEncode2(2, %d, %d) = %d, want %d", w[0], w[1], got, d)
		}
	}
}

// TestHilbert3Golden pins the order-1 curve to the Skilling unit-cube
// walk.
func TestHilbert3Golden(t *testing.T) {
	want := [][3]uint32{
		{0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {0, 1, 0},
		{1, 1, 0}, {1, 1, 1}, {1, 0, 1}, {1, 0, 0},
	}
	for d, w := range want {
		x, y, z := HilbertDecode3(1, uint64(d))
		if x != w[0] || y != w[1] || z != w[2] {
			t.Errorf("HilbertDecode3(1, %d) = (%d,%d,%d), want %v", d, x, y, z, w)
		}
		if got := HilbertEncode3(1, w[0], w[1], w[2]); got != uint64(d) {
			t.Errorf("HilbertEncode3(1, %v) = %d, want %d", w, got, d)
		}
	}
}

// TestHilbert2Bijective walks every index of full 2^order lattices,
// checking decode∘encode is the identity, every cell is visited exactly
// once, and consecutive indices are lattice neighbors (the Hilbert
// adjacency property).
func TestHilbert2Bijective(t *testing.T) {
	for order := 1; order <= 5; order++ {
		side := uint32(1) << order
		total := uint64(side) * uint64(side)
		seen := make([]bool, total)
		var px, py uint32
		for d := uint64(0); d < total; d++ {
			x, y := HilbertDecode2(order, d)
			if x >= side || y >= side {
				t.Fatalf("order %d: decode(%d) = (%d,%d) outside lattice", order, d, x, y)
			}
			cell := uint64(y)*uint64(side) + uint64(x)
			if seen[cell] {
				t.Fatalf("order %d: cell (%d,%d) visited twice", order, x, y)
			}
			seen[cell] = true
			if got := HilbertEncode2(order, x, y); got != d {
				t.Fatalf("order %d: encode(decode(%d)) = %d", order, d, got)
			}
			if d > 0 {
				if absDiff(x, px)+absDiff(y, py) != 1 {
					t.Fatalf("order %d: indices %d->%d jump (%d,%d)->(%d,%d)", order, d-1, d, px, py, x, y)
				}
			}
			px, py = x, y
		}
	}
}

// TestHilbert3Bijective is the 3D analogue of TestHilbert2Bijective.
func TestHilbert3Bijective(t *testing.T) {
	for order := 1; order <= 4; order++ {
		side := uint32(1) << order
		total := uint64(side) * uint64(side) * uint64(side)
		seen := make([]bool, total)
		var px, py, pz uint32
		for d := uint64(0); d < total; d++ {
			x, y, z := HilbertDecode3(order, d)
			if x >= side || y >= side || z >= side {
				t.Fatalf("order %d: decode(%d) = (%d,%d,%d) outside lattice", order, d, x, y, z)
			}
			cell := (uint64(z)*uint64(side)+uint64(y))*uint64(side) + uint64(x)
			if seen[cell] {
				t.Fatalf("order %d: cell (%d,%d,%d) visited twice", order, x, y, z)
			}
			seen[cell] = true
			if got := HilbertEncode3(order, x, y, z); got != d {
				t.Fatalf("order %d: encode(decode(%d)) = %d", order, d, got)
			}
			if d > 0 {
				if absDiff(x, px)+absDiff(y, py)+absDiff(z, pz) != 1 {
					t.Fatalf("order %d: indices %d->%d jump (%d,%d,%d)->(%d,%d,%d)",
						order, d-1, d, px, py, pz, x, y, z)
				}
			}
			px, py, pz = x, y, z
		}
	}
}

// TestMorton2Bijective checks the 2D Morton codec round-trips and visits
// every cell of a full lattice exactly once.
func TestMorton2Bijective(t *testing.T) {
	const side = 32
	seen := make(map[uint64]bool, side*side)
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			d := MortonEncode2(x, y)
			if seen[d] {
				t.Fatalf("index %d hit twice", d)
			}
			seen[d] = true
			gx, gy := MortonDecode2(d)
			if gx != x || gy != y {
				t.Fatalf("MortonDecode2(MortonEncode2(%d,%d)) = (%d,%d)", x, y, gx, gy)
			}
		}
	}
	// Full 32-bit coordinates survive the round trip.
	for _, c := range [][2]uint32{{0xffffffff, 0}, {0, 0xffffffff}, {0xdeadbeef, 0x12345678}} {
		gx, gy := MortonDecode2(MortonEncode2(c[0], c[1]))
		if gx != c[0] || gy != c[1] {
			t.Fatalf("MortonDecode2(MortonEncode2(%#x,%#x)) = (%#x,%#x)", c[0], c[1], gx, gy)
		}
	}
}

// TestMorton3Bijective is the 3D analogue (21-bit coordinates).
func TestMorton3Bijective(t *testing.T) {
	const side = 16
	seen := make(map[uint64]bool, side*side*side)
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			for z := uint32(0); z < side; z++ {
				d := MortonEncode3(x, y, z)
				if seen[d] {
					t.Fatalf("index %d hit twice", d)
				}
				seen[d] = true
				gx, gy, gz := MortonDecode3(d)
				if gx != x || gy != y || gz != z {
					t.Fatalf("MortonDecode3(MortonEncode3(%d,%d,%d)) = (%d,%d,%d)", x, y, z, gx, gy, gz)
				}
			}
		}
	}
	for _, c := range [][3]uint32{{0x1fffff, 0, 0}, {0, 0x1fffff, 0}, {0x155555, 0xaaaa, 0x1fffff}} {
		gx, gy, gz := MortonDecode3(MortonEncode3(c[0], c[1], c[2]))
		if gx != c[0] || gy != c[1] || gz != c[2] {
			t.Fatalf("MortonDecode3(MortonEncode3(%#x,%#x,%#x)) = (%#x,%#x,%#x)",
				c[0], c[1], c[2], gx, gy, gz)
		}
	}
}

// TestHilbertMortonZeroOrder pins the degenerate single-cell lattice.
func TestHilbertMortonZeroOrder(t *testing.T) {
	if d := HilbertEncode2(0, 0, 0); d != 0 {
		t.Errorf("HilbertEncode2(0,0,0) = %d", d)
	}
	if x, y := HilbertDecode2(0, 0); x != 0 || y != 0 {
		t.Errorf("HilbertDecode2(0,0) = (%d,%d)", x, y)
	}
	if d := HilbertEncode3(0, 0, 0, 0); d != 0 {
		t.Errorf("HilbertEncode3(0,0,0,0) = %d", d)
	}
	if x, y, z := HilbertDecode3(0, 0); x != 0 || y != 0 || z != 0 {
		t.Errorf("HilbertDecode3(0,0) = (%d,%d,%d)", x, y, z)
	}
}

// sink keeps the codec calls of TestCodecsZeroAlloc from being removed.
var sink uint64

// TestCodecsZeroAlloc is the dynamic side of the eight //lint:hotpath
// roots: each codec, over a 4096-point batch, performs no heap
// allocation.
func TestCodecsZeroAlloc(t *testing.T) {
	const batch, order2, order3 = 4096, 16, 12
	codecs := []struct {
		name string
		one  func(v uint32) uint64
	}{
		{"MortonEncode2", func(v uint32) uint64 { return MortonEncode2(v, v^0x2a) }},
		{"MortonDecode2", func(v uint32) uint64 { x, y := MortonDecode2(uint64(v) * 0x9e3779b9); return uint64(x + y) }},
		{"MortonEncode3", func(v uint32) uint64 { return MortonEncode3(v, v^0x2a, v^0x155) }},
		{"MortonDecode3", func(v uint32) uint64 { x, y, z := MortonDecode3(uint64(v) * 0x9e3779b9); return uint64(x + y + z) }},
		{"HilbertEncode2", func(v uint32) uint64 { return HilbertEncode2(order2, v, v^0x2a) }},
		{"HilbertDecode2", func(v uint32) uint64 { x, y := HilbertDecode2(order2, uint64(v)*0x9e37); return uint64(x + y) }},
		{"HilbertEncode3", func(v uint32) uint64 { return HilbertEncode3(order3, v, v^0x2a, v^0x155) }},
		{"HilbertDecode3", func(v uint32) uint64 { x, y, z := HilbertDecode3(order3, uint64(v)*0x9e3779); return uint64(x + y + z) }},
	}
	for _, c := range codecs {
		allocs := testing.AllocsPerRun(10, func() {
			for v := uint32(0); v < batch; v++ {
				sink += c.one(v)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %v times per %d-point batch, want 0", c.name, allocs, batch)
		}
	}
}
