package cliutil

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hiertopo"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// joinInts spells dims with a grammar's separator.
func joinInts(dims []int, sep string) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, sep)
}

// sampleDims is a row's smallest interesting shape: every dimension 4, or
// the largest value below that which keeps the machine within 16
// processors (a 4-ary fat-tree of 4 levels has 256).
func sampleDims(r topology.MachineRow) []int {
	n := r.Arity
	if n == 0 {
		n = 2 // a grid of any rank: a plane
	}
	dims := make([]int, n)
	for d := 4; ; d-- {
		for i := range dims {
			dims[i] = d
		}
		if r.Nodes(dims) <= 16 {
			return dims
		}
	}
}

// machineSpecs spells every row of the machine table at its sample shape,
// flat and as the leaf of a hierarchy.
func machineSpecs() []string {
	var flat, hier []string
	for _, r := range topology.Machines() {
		dims := sampleDims(r)
		flat = append(flat, r.Kind+":"+joinInts(dims, ","))
		hier = append(hier, "hier:pod:2:"+r.Kind+"-"+joinInts(dims, "x"))
	}
	return append(flat, hier...)
}

// patternHash covers everything a pattern row produces: the CSR arrays,
// weights to the bit, the name and the coordinates.
func patternHash(g *taskgraph.Graph, coords [][]float64) string {
	h := sha256.New()
	put := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	xadj, adjncy, adjwgt := g.CSR()
	put(xadj)
	put(adjncy)
	put(adjwgt)
	put(g.VertexWeights())
	h.Write([]byte(g.Name()))
	put(int64(len(coords)))
	for _, c := range coords {
		put(int64(len(c)))
		for _, x := range c {
			put(math.Float64bits(x))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// patternHashes were recorded at 008445d, before the table and the one
// grid generator, through ParsePattern and PatternCoords with msg 1000 and
// seed 3. A new row adds its two lines; no existing line may change.
var patternHashes = map[string]string{
	"mesh2d:1,1":    "f89ba8dc185b42b9",
	"mesh2d:5,6":    "468fbf7d09a4a5d7",
	"mesh3d:1,1,1":  "a49957445acf90da",
	"mesh3d:5,6,7":  "238a8b9f4285b15d",
	"ring:3":        "34d5d37ee4b7c063",
	"ring:7":        "f4e48806b1551917",
	"torus2d:3,3":   "a33a67bfecfc351a",
	"torus2d:7,8":   "b52fc3162232602f",
	"alltoall:2":    "d4191d36e6630d92",
	"alltoall:6":    "8714b249b364d886",
	"leanmd:1":      "d82dcc41a482d07f",
	"leanmd:5":      "771c4f085bd0208e",
	"random:3,1":    "ed37672729424327",
	"random:7,6":    "1322791cc4ce5947",
	"rgg:2,1":       "ffe8508de9685197",
	"rgg:6,6":       "07ecb362c5d84bda",
	"stencil9:1,1":  "24480d672baf2611",
	"stencil9:5,6":  "cec809d110f68580",
	"transpose:2":   "7452047ff8278431",
	"transpose:6":   "9939b2ffb0252741",
	"bintree:1":     "afb9fbda9c8b1e17",
	"bintree:5":     "662bc89d3b0889db",
	"butterfly:1":   "bd767a8c9a386712",
	"butterfly:5":   "384d89e6a8e75b14",
	"wavefront:1,1": "6689040b8b510657",
	"wavefront:5,6": "faa1ba0dfe816ffd",
}

// TestPatternRows holds every row of the pattern table to its bounds: at
// its lower bounds and at one mid size (argument i at Min+4+i, so grids
// are not square) it builds the graph recorded for that spec and
// coordinates that are nil or one equal-length row per task; one below
// any bound, and one above a Max, it refuses with an error naming the
// bound and does not reach a generator, which would panic. A new row is
// covered by being a row.
func TestPatternRows(t *testing.T) {
	if len(patternHashes) != 2*len(patternTable) {
		t.Errorf("%d recorded hashes for %d rows, want two a row", len(patternHashes), len(patternTable))
	}
	for _, r := range patternTable {
		t.Run(r.Kind, func(t *testing.T) {
			lo := make([]int, len(r.Args))
			mid := make([]int, len(r.Args))
			for i, a := range r.Args {
				if a.Min < 1 {
					t.Fatalf("argument %s has Min %d: the task cap divides by it", a.Name, a.Min)
				}
				lo[i], mid[i] = a.Min, a.Min+4+i
			}
			for _, args := range [][]int{lo, mid} {
				spec := r.Kind + ":" + joinInts(args, ",")
				g, err := ParsePattern(spec, 1000, 3)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				coords := PatternCoords(spec, 3)
				if (coords == nil) != (r.Coords == nil) {
					t.Errorf("%s: %d coordinate rows, row has Coords: %v", spec, len(coords), r.Coords != nil)
				}
				if coords != nil && len(coords) != g.NumVertices() {
					t.Errorf("%s: %d coordinate rows for %d tasks", spec, len(coords), g.NumVertices())
				}
				for v, c := range coords {
					if len(c) != len(coords[0]) || len(c) == 0 {
						t.Fatalf("%s: task %d has %d coordinates, task 0 has %d", spec, v, len(c), len(coords[0]))
					}
				}
				if got, want := patternHash(g, coords), patternHashes[spec]; got != want {
					t.Errorf("%s: hash %s, recorded %q", spec, got, want)
				}
			}
			refuses := func(i, v int, bound string) {
				args := append([]int(nil), mid...)
				args[i] = v
				spec := r.Kind + ":" + joinInts(args, ",")
				_, err := ParsePattern(spec, 1000, 3)
				if err == nil || !strings.Contains(err.Error(), bound) {
					t.Errorf("%s: error %v, want one naming the bound %q", spec, err, bound)
				}
				if c := PatternCoords(spec, 3); c != nil {
					t.Errorf("%s: %d coordinate rows for a refused spec", spec, len(c))
				}
			}
			for i, a := range r.Args {
				refuses(i, a.Min-1, fmt.Sprintf(">= %d", a.Min))
				if a.Max > 0 {
					refuses(i, a.Max+1, fmt.Sprintf("<= %d", a.Max))
				}
			}
			for _, msg := range []float64{-5, math.NaN()} {
				if _, err := ParsePattern(r.Kind+":"+joinInts(mid, ","), msg, 3); err == nil {
					t.Errorf("message bytes %g accepted", msg)
				}
			}
		})
	}
}

// TestRandomCountsEdges: random's M is an edge count, not a task count.
// It stays out of the task cap, so a 1 690-task graph with 5 070 edges
// builds, and it has a bound of its own, refused in a message that says
// edges.
func TestRandomCountsEdges(t *testing.T) {
	g, err := ParsePattern("random:1690,5070", 1000, 3)
	if err != nil {
		t.Fatalf("random:1690,5070: %v", err)
	}
	if g.NumVertices() != 1690 {
		t.Errorf("random:1690,5070 has %d tasks, want 1690", g.NumVertices())
	}
	if _, _, err := findPattern(fmt.Sprintf("random:%d,%d", maxPatternTasks, maxPatternEdges)); err != nil {
		t.Errorf("the largest random spec is refused: %v", err)
	}
	spec := fmt.Sprintf("random:1690,%d", maxPatternEdges+1)
	_, err = ParsePattern(spec, 1000, 3)
	if want := fmt.Sprintf("must be <= %d edges", maxPatternEdges); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %v, want one saying %q", spec, err, want)
	}
}

// TestMachineRows: the two grammars agree on every row of the machine
// table — the flat spelling kind:a,b and the leaf spelling kind-axb name
// the same machine, with the processor count the row gives without
// building it — and ParseTopology refuses exactly the rows that do not
// route.
func TestMachineRows(t *testing.T) {
	for _, r := range topology.Machines() {
		dims := sampleDims(r)
		flatSpec := r.Kind + ":" + joinInts(dims, ",")
		flat, err := ParseAnyTopology(flatSpec)
		if err != nil {
			t.Fatalf("%s: %v", flatSpec, err)
		}
		leafSpec := r.Kind + "-" + joinInts(dims, "x")
		h, err := hiertopo.Parse("pod:1:" + leafSpec)
		if err != nil {
			t.Fatalf("%s: %v", leafSpec, err)
		}
		if want := "hier(pod:1:" + leafSpec + ")"; h.Name() != want {
			t.Errorf("%s: hierarchy is named %s, want %s", leafSpec, h.Name(), want)
		}
		if leaf := h.Leaf(); leaf.Name() != flat.Name() || leaf.Nodes() != flat.Nodes() {
			t.Errorf("%s is %s (%d processors), %s is %s (%d)",
				flatSpec, flat.Name(), flat.Nodes(), leafSpec, leaf.Name(), leaf.Nodes())
		}
		if n := r.Nodes(dims); n != flat.Nodes() {
			t.Errorf("%s: the row counts %d processors, the machine has %d", flatSpec, n, flat.Nodes())
		}
		router, err := ParseTopology(flatSpec)
		if _, routes := flat.(topology.Router); routes != r.Routes || routes != (err == nil) {
			t.Errorf("%s: Routes is %v, the machine routes: %v, ParseTopology says %v", flatSpec, r.Routes, routes, err)
		}
		if err == nil && router.Name() != flat.Name() {
			t.Errorf("%s: ParseTopology built %s, ParseAnyTopology %s", flatSpec, router.Name(), flat.Name())
		}
		// One dimension too many for a fixed list is refused by both.
		if r.Arity != 0 {
			long := append(append([]int(nil), dims...), 2)
			if _, err := ParseAnyTopology(r.Kind + ":" + joinInts(long, ",")); err == nil {
				t.Errorf("%s accepted %d dimensions", r.Kind, len(long))
			}
			if _, err := hiertopo.Parse("pod:1:" + r.Kind + "-" + joinInts(long, "x")); err == nil {
				t.Errorf("leaf %s accepted %d dimensions", r.Kind, len(long))
			}
		}
	}
}
