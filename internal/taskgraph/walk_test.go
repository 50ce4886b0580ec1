package taskgraph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The builders the pattern generators had before they filled rows: the
// stencil walked arm by arm into a csrFill or a Builder, rgg scanned pair
// by pair into a Builder, and coordinates visited cell by cell. They are
// the references the row fills are held to bit for bit.

// cellID is the task id of the cell at c in a grid of extents ext, the
// numbering cellAt inverts.
func cellID(ext, c []int) int {
	id := 0
	for k, e := range ext {
		id = id*e + c[k]
	}
	return id
}

// eachCell calls visit with the id and coordinates of every cell of the
// grid, in id order. c is reused between calls.
func eachCell(ext []int, visit func(id int, c []int)) {
	c := make([]int, len(ext))
	for {
		visit(cellID(ext, c), c)
		k := len(ext) - 1
		for ; k >= 0; k-- {
			if c[k]++; c[k] < ext[k] {
				break
			}
			c[k] = 0
		}
		if k < 0 {
			return
		}
	}
}

// eachArm calls pair with every pair of stencil over the grid that
// AddEdge would keep, cell by cell in id order and arm by arm: arms that
// leave the grid wrap around when wrap is set and are dropped otherwise.
func eachArm(ext []int, wrap bool, stencil []arm, msgBytes float64, pair func(a, b int, w float64)) {
	to := make([]int, len(ext))
	eachCell(ext, func(id int, c []int) {
	arms:
		for _, a := range stencil {
			for k, e := range ext {
				x := c[k] + a.d[k]
				if wrap {
					x = (x + e) % e
				} else if x < 0 || x >= e {
					continue arms
				}
				to[k] = x
			}
			if v, w := cellID(ext, to), msgBytes*a.frac; keepEdge(id, v, w) {
				pair(id, v, w)
			}
		}
	})
}

// walkGrid is grid as a walk: the stencil walked twice through a
// csrFill, to count and to place.
func walkGrid(name string, ext []int, wrap bool, stencil []arm, msgBytes float64) *Graph {
	n := 1
	for _, e := range ext {
		n *= e
	}
	f := newCSRFill(n)
	eachArm(ext, wrap, stencil, msgBytes, f.count)
	f.alloc()
	eachArm(ext, wrap, stencil, msgBytes, f.place)
	return f.finish(name, ones(n))
}

// walkGridCoords is gridCoords cell by cell.
func walkGridCoords(ext []int, rows int) [][]float64 {
	coords := make([][]float64, rows)
	for i := range coords {
		coords[i] = make([]float64, len(ext))
	}
	eachCell(ext, func(id int, c []int) {
		for k, x := range c {
			coords[id][k] = float64(x)
		}
	})
	return coords
}

// builderLeanMD is LeanMD through a Builder: the halo arm by arm, then
// each integrator's block.
func builderLeanMD(p int, msgBytes float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := LeanMDCells + p
	b := NewBuilder(n)
	for v := 0; v < LeanMDCells; v++ {
		b.SetVertexWeight(v, 0.75+rng.Float64()*0.5)
	}
	per := max(LeanMDCells/p, 1)
	eachArm(leanMDGrid, false, halo26, msgBytes, func(a, v int, w float64) { b.AddEdge(a, v, w) })
	for i := 0; i < p; i++ {
		v := LeanMDCells + i
		b.SetVertexWeight(v, 0.25)
		lo := (i * LeanMDCells) / p
		for c := lo; c < min(lo+per, LeanMDCells); c++ {
			b.AddEdge(v, c, msgBytes/8)
		}
	}
	return b.Build(fmt.Sprintf("leanmd(p=%d,seed=%d)", p, seed))
}

// walkLeanMDCoords is LeanMDCoords over walkGridCoords.
func walkLeanMDCoords(p int) [][]float64 {
	coords := walkGridCoords(leanMDGrid, LeanMDCells+p)
	per := max(LeanMDCells/p, 1)
	for j := 0; j < p; j++ {
		lo := (j * LeanMDCells) / p
		hi := min(lo+per, LeanMDCells)
		cen := coords[LeanMDCells+j]
		for c := lo; c < hi; c++ {
			for d := 0; d < 3; d++ {
				cen[d] += coords[c][d]
			}
		}
		for d := range cen {
			cen[d] /= float64(hi - lo)
		}
	}
	return coords
}

// builderRGG is RandomGeometricDeg as a pair scan: each pair once, from
// its lower end, over head-and-next cell lists, into a Builder.
func builderRGG(n, avgDeg int, msgBytes float64, seed int64) *Graph {
	xs, ys := rggPoints(n, seed)
	radius := math.Min(math.Sqrt(float64(avgDeg+1)/(math.Pi*float64(n))), 1)
	cells := max(int(1/radius), 1)
	cellOf := func(x float64) int { return min(int(x*float64(cells)), cells-1) }
	head := make([]int32, cells*cells)
	for i := range head {
		head[i] = -1
	}
	next := make([]int32, n)
	for i := 0; i < n; i++ {
		c := cellOf(ys[i])*cells + cellOf(xs[i])
		next[i] = head[c]
		head[c] = int32(i)
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(xs[i]), cellOf(ys[i])
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || nx >= cells || ny < 0 || ny >= cells {
					continue
				}
				for k := head[ny*cells+nx]; k >= 0; k = next[k] {
					j := int(k)
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					d := math.Sqrt(ddx*ddx + ddy*ddy)
					if d < radius {
						b.AddEdge(i, j, msgBytes*(1-d/radius))
					}
				}
			}
		}
	}
	return b.Build(fmt.Sprintf("rgg(n=%d,deg=%d,seed=%d)", n, avgDeg, seed))
}

// builderRGGCoords is RandomGeometricCoords row by row.
func builderRGGCoords(n int, seed int64) [][]float64 {
	xs, ys := rggPoints(n, seed)
	coords := make([][]float64, n)
	for i := range coords {
		coords[i] = []float64{xs[i], ys[i]}
	}
	return coords
}

// sameCoords reports the first difference between two coordinate
// tables, compared bit for bit.
func sameCoords(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d coordinate rows, want %d", len(got), len(want))
	}
	for i := range want {
		if err := sameBits(fmt.Sprintf("coords[%d]", i), got[i], want[i]); err != nil {
			return err
		}
	}
	return nil
}

// stencils are every grid stencil, by dimension count.
var stencils = [][][]arm{1: {faces1}, 2: {faces2, nine}, 3: {faces3, halo26}}

// patternBytes are the message sizes the pattern fuzz draws from: zero,
// integers, fractions, a subnormal whose quarter and eighth round to
// zero, and infinity.
var patternBytes = []float64{0, 1, 0.1, 0.3, 1.0 / 3, 7.25, 1e-3, 1000, 2.5e-300, 5e-324, math.Inf(1)}

// FuzzPatternsMatchWalk holds the row-filled pattern builders to the
// walks they replace, bit for bit: a lattice of 1 to 3 dimensions with
// extents 1 to 9 (3 to 9 with wrap) under each of its stencils, an rgg
// and a LeanMD, each with the fuzzer's bytes and chunks of 1 to 16 rows,
// so every chunk boundary and a forked fill are reached; and the
// coordinates of each.
func FuzzPatternsMatchWalk(f *testing.F) {
	f.Add([]byte{2, 4, 4, 0, 1, 7, 3}, false, uint16(40), uint8(8), int64(1), uint16(1))
	f.Add([]byte{1, 7, 0, 0, 0, 1, 0}, true, uint16(2), uint8(1), int64(2), uint16(3241))
	f.Add([]byte{3, 3, 4, 5, 1, 2, 5}, true, uint16(300), uint8(30), int64(-7), uint16(5))
	f.Add([]byte{3, 9, 9, 9, 1, 9, 15}, false, uint16(7), uint8(200), int64(3), uint16(6480))
	f.Add([]byte{2, 1, 9, 0, 1, 8, 2}, false, uint16(129), uint8(4), int64(9), uint16(3239))
	f.Fuzz(func(t *testing.T, shape []byte, wrap bool, rn uint16, deg uint8, seed int64, p uint16) {
		at := func(i int) int {
			if i < len(shape) {
				return int(shape[i])
			}
			return 0
		}
		dims := 1 + at(0)%3
		least := 1
		if wrap {
			least = 3
		}
		ext := make([]int, dims)
		for k := range ext {
			ext[k] = least + at(1+k)%(10-least)
		}
		stencil := stencils[dims][at(4)%len(stencils[dims])]
		msg := patternBytes[at(5)%len(patternBytes)]
		grain := 1 + at(6)%16

		name := fmt.Sprintf("g%v", ext)
		l := newLattice(name, ext, wrap, stencil, msg)
		n := 1
		for _, e := range ext {
			n *= e
		}
		xadj, adj, wgt := fillRows(n, grain, l.count, l.fill)
		want := walkGrid(name, ext, wrap, stencil, msg)
		if err := sameGraph(FromCSR(name, ones(n), xadj, adj, wgt), want); err != nil {
			t.Fatalf("%v wrap=%v bytes %v grain %d: %v", ext, wrap, msg, grain, err)
		}
		if err := sameGraph(grid(name, ext, wrap, stencil, msg), want); err != nil {
			t.Fatalf("%v wrap=%v bytes %v: %v", ext, wrap, msg, err)
		}
		if err := sameCoords(GridCoords(ext...), walkGridCoords(ext, n)); err != nil {
			t.Fatalf("GridCoords%v: %v", ext, err)
		}

		rgn, rdeg := 2+int(rn)%400, 1+int(deg)%40
		if err := sameGraph(randomGeometricDeg(rgn, rdeg, msg, seed, grain), builderRGG(rgn, rdeg, msg, seed)); err != nil {
			t.Fatalf("rgg n=%d deg=%d bytes %v seed %d grain %d: %v", rgn, rdeg, msg, seed, grain, err)
		}
		if err := sameCoords(RandomGeometricCoords(rgn, seed), builderRGGCoords(rgn, seed)); err != nil {
			t.Fatalf("rgg coords n=%d seed %d: %v", rgn, seed, err)
		}

		lp := 1 + int(p)%7000
		if err := sameGraph(leanMD(lp, msg, seed, 64*grain), builderLeanMD(lp, msg, seed)); err != nil {
			t.Fatalf("leanmd p=%d bytes %v grain %d: %v", lp, msg, 64*grain, err)
		}
		if err := sameCoords(LeanMDCoords(lp), walkLeanMDCoords(lp)); err != nil {
			t.Fatalf("leanmd coords p=%d: %v", lp, err)
		}
	})
}

// TestPatternsSameAtAnyWidth builds patterns of several chunks at
// GOMAXPROCS 1, 2 and 8 and holds each, and its coordinates, to its
// walk: every width writes the same bytes.
func TestPatternsSameAtAnyWidth(t *testing.T) {
	cases := []struct {
		name      string
		got, want func() *Graph
	}{
		{"stencil9", func() *Graph { return Stencil9(131, 67, 0.3) },
			func() *Graph { return walkGrid("stencil9(131,67)", []int{131, 67}, false, nine, 0.3) }},
		{"torus2d", func() *Graph { return Torus2D(70, 61, 0.3) },
			func() *Graph { return walkGrid("torus2d(70,61)", []int{70, 61}, true, faces2, 0.3) }},
		{"mesh3d", func() *Graph { return Mesh3D(17, 19, 23, 0.3) },
			func() *Graph { return walkGrid("mesh3d(17,19,23)", []int{17, 19, 23}, false, faces3, 0.3) }},
		{"ring", func() *Graph { return Ring(9001, 0.3) },
			func() *Graph { return walkGrid("ring(9001)", []int{9001}, true, faces1, 0.3) }},
		{"halo26 wrap", func() *Graph { return grid("h", []int{17, 18, 19}, true, halo26, 0.3) },
			func() *Graph { return walkGrid("h", []int{17, 18, 19}, true, halo26, 0.3) }},
		{"rgg", func() *Graph { return RandomGeometricDeg(20011, 8, 0.3, 5) },
			func() *Graph { return builderRGG(20011, 8, 0.3, 5) }},
		{"leanmd", func() *Graph { return LeanMD(5000, 0.3, 5) },
			func() *Graph { return builderLeanMD(5000, 0.3, 5) }},
	}
	coords := []struct {
		name      string
		got, want func() [][]float64
	}{
		{"grid", func() [][]float64 { return GridCoords(131, 67) },
			func() [][]float64 { return walkGridCoords([]int{131, 67}, 131*67) }},
		{"rgg", func() [][]float64 { return RandomGeometricCoords(20011, 5) },
			func() [][]float64 { return builderRGGCoords(20011, 5) }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		want := c.want()
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			if err := sameGraph(c.got(), want); err != nil {
				t.Errorf("%s at GOMAXPROCS %d: %v", c.name, procs, err)
			}
		}
	}
	for _, c := range coords {
		want := c.want()
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			if err := sameCoords(c.got(), want); err != nil {
				t.Errorf("%s coordinates at GOMAXPROCS %d: %v", c.name, procs, err)
			}
		}
	}
}

// TestBuildPanicsBeforeFork: a builder's argument panics reach its caller
// at every size. A graph past one grain forks its fill, and a panic
// raised inside a forked chunk would end the process instead.
func TestBuildPanicsBeforeFork(t *testing.T) {
	for name, f := range map[string]func(){
		"stencil9 negative bytes": func() { Stencil9(200, 200, -1) },
		"torus2d negative bytes":  func() { Torus2D(200, 200, -1) },
		"leanmd negative bytes":   func() { LeanMD(5000, -1, 1) },
		"rgg negative bytes":      func() { RandomGeometricDeg(20000, 8, -1, 1) },
		"torus2d short extent":    func() { Torus2D(2, 50000, 1) },
		"mesh3d zero extent":      func() { Mesh3D(100, 0, 100, 1) },
		"lattice offset past ±1":  func() { grid("g", []int{100, 100}, false, []arm{{[]int{2, 0}, 1}}, 1) },
		"lattice of four extents": func() { grid("g", []int{10, 10, 10, 10}, false, nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want a panic", name)
				}
			}()
			f()
		}()
	}
}
