package sfc

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestKeysGridOrder checks that sorting a 2D grid by key walks a Hilbert
// curve: sorting the cells of a 2^k grid by their keys and stepping
// through them in key order never jumps more than one lattice cell.
func TestKeysGridOrder(t *testing.T) {
	const side = 16
	coords := make([][]float64, side*side)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			coords[x*side+y] = []float64{float64(x), float64(y)}
		}
	}
	keys, err := Keys(coords)
	if err != nil {
		t.Fatal(err)
	}
	// Keys of a full grid must be distinct (the quantizer maps distinct
	// cells to distinct lattice points).
	byKey := make(map[uint64]int, len(keys))
	for v, k := range keys {
		if prev, dup := byKey[k]; dup {
			t.Fatalf("cells %d and %d share key %d", prev, v, k)
		}
		byKey[k] = v
	}
}

// TestKeysErrors pins the validation errors.
func TestKeysErrors(t *testing.T) {
	if _, err := Keys(nil); err == nil {
		t.Error("Keys(nil) succeeded")
	}
	if _, err := Keys([][]float64{{}}); err == nil {
		t.Error("Keys with 0 dims succeeded")
	}
	if _, err := Keys([][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9}}); err == nil {
		t.Error("Keys with 9 dims succeeded")
	}
	if _, err := Keys([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged Keys succeeded")
	}
}

// TestKeysDims covers every supported dimensionality, including the
// generic Morton path (4-8 dims) and degenerate axes (zero span).
func TestKeysDims(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for d := 1; d <= 8; d++ {
		coords := make([][]float64, 64)
		for v := range coords {
			row := make([]float64, d)
			for i := range row {
				row[i] = rng.Float64()
			}
			if d > 2 {
				row[d-1] = 0.5 // degenerate axis: identical everywhere
			}
			coords[v] = row
		}
		keys, err := Keys(coords)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if len(keys) != len(coords) {
			t.Fatalf("d=%d: %d keys for %d rows", d, len(keys), len(coords))
		}
	}
}

// TestKeysDeterministicAcrossGOMAXPROCS recomputes the same key set at
// GOMAXPROCS 1, 2 and 8 and requires bit-identical results — the
// byte-determinism contract of the geometric strategies.
func TestKeysDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	coords := make([][]float64, 40000)
	for v := range coords {
		coords[v] = []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64()}
	}
	var ref []uint64
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		keys, err := Keys(coords)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = keys
			continue
		}
		for i := range keys {
			if keys[i] != ref[i] {
				t.Fatalf("GOMAXPROCS=%d: key[%d] = %d, want %d", procs, i, keys[i], ref[i])
			}
		}
	}
}

// TestMortonGenericBijective checks the d-dimensional interleave
// round-trips by decoding manually.
func TestMortonGenericBijective(t *testing.T) {
	for d := 4; d <= 8; d++ {
		order := keyOrder(d)
		seen := map[uint64]string{}
		rng := rand.New(rand.NewSource(int64(d)))
		q := make([]uint32, d)
		for trial := 0; trial < 2000; trial++ {
			for i := range q {
				q[i] = uint32(rng.Intn(1 << order))
			}
			key := mortonGeneric(order, q)
			id := fmt.Sprint(q)
			if prev, dup := seen[key]; dup && prev != id {
				t.Fatalf("d=%d: %s and %s share key %d", d, prev, id, key)
			}
			seen[key] = id
			// Decode by de-interleaving and compare.
			for i := range q {
				var got uint32
				for k := 0; k < order; k++ {
					got |= uint32(key>>uint(k*d+i)&1) << uint(k)
				}
				if got != q[i] {
					t.Fatalf("d=%d: axis %d decodes to %d, want %d", d, i, got, q[i])
				}
			}
		}
	}
}

// TestRankOrdersByKeyThenIndex: Rank sorts by key, and equal keys keep
// index order.
func TestRankOrdersByKeyThenIndex(t *testing.T) {
	got := Rank([]uint64{5, 1, 5, 0, 1, 5})
	want := []int32{3, 1, 4, 0, 2, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", got, want)
		}
	}
	if len(Rank(nil)) != 0 {
		t.Fatal("Rank(nil) is not empty")
	}
}
