package experiments

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

func col(t *Table, name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// TestRegistryCoversAllPaperResults: the paper's table and eleven figures,
// in paper order — the order of results_full.txt — and every id of the
// three registries findable and distinct.
func TestRegistryCoversAllPaperResults(t *testing.T) {
	want := []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, e := range reg {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if got, ok := Find(e.ID); !ok || got.ID != e.ID || seen[e.ID] {
			t.Errorf("id %s: found %v, seen before %v", e.ID, ok, seen[e.ID])
		}
		seen[e.ID] = true
	}
}

func TestFactorHelpers(t *testing.T) {
	cases := []struct{ p, a, b int }{
		{64, 8, 8}, {512, 32, 16}, {18, 6, 3}, {784, 28, 28}, {7, 7, 1},
	}
	for _, c := range cases {
		a, b := factor2(c.p)
		if a*b != c.p {
			t.Errorf("factor2(%d) = %d×%d", c.p, a, b)
		}
		if a != c.a || b != c.b {
			t.Errorf("factor2(%d) = (%d,%d), want (%d,%d)", c.p, a, b, c.a, c.b)
		}
	}
	for _, p := range []int{64, 128, 216, 512, 784, 1000} {
		a, b, c := factor3(p)
		if a*b*c != p {
			t.Errorf("factor3(%d) = %d×%d×%d", p, a, b, c)
		}
		if a < b || b < c || c < 1 {
			t.Errorf("factor3(%d) not ordered: (%d,%d,%d)", p, a, b, c)
		}
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "demo", Notes: "n",
		Columns: []string{"a", "b"},
		Rows:    [][]float64{{1, 2.5}, {1024, 0.001}},
	}
	var buf bytes.Buffer
	tbl.Format(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a", "b", "2.500", "1024", "0.001"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tbl, err := Table1(true)
	if err != nil {
		t.Fatal(err)
	}
	ir, io_, irat := col(tbl, "random_ms"), col(tbl, "optimal_ms"), col(tbl, "ratio")
	prevRatio := 0.0
	for _, row := range tbl.Rows {
		if row[ir] <= row[io_] {
			t.Errorf("msg %vKB: random %v <= optimal %v", row[0], row[ir], row[io_])
		}
		if row[irat] < prevRatio {
			t.Errorf("ratio shrank with message size: %v after %v", row[irat], prevRatio)
		}
		prevRatio = row[irat]
	}
}

func TestFig1Shape(t *testing.T) {
	tbl, err := Fig1(true)
	if err != nil {
		t.Fatal(err)
	}
	iR, iE, iT, iC := col(tbl, "random"), col(tbl, "E[random]"), col(tbl, "topolb"), col(tbl, "topocentlb")
	for _, row := range tbl.Rows {
		if rel := row[iR]/row[iE] - 1; rel > 0.25 || rel < -0.25 {
			t.Errorf("p=%v: random %v deviates from analytic %v", row[0], row[iR], row[iE])
		}
		if row[iT] > 1.05 {
			t.Errorf("p=%v: TopoLB hops/byte %v, paper finds ~1 (optimal)", row[0], row[iT])
		}
		if row[iT] > row[iC]+1e-9 {
			t.Errorf("p=%v: TopoLB %v above TopoCentLB %v", row[0], row[iT], row[iC])
		}
		if row[iC] >= row[iR] {
			t.Errorf("p=%v: TopoCentLB %v not below random %v", row[0], row[iC], row[iR])
		}
	}
}

func TestFig3Fig4Shape(t *testing.T) {
	tbl, err := Fig3(true)
	if err != nil {
		t.Fatal(err)
	}
	iR, iE, iT := col(tbl, "random"), col(tbl, "E[random]"), col(tbl, "topolb")
	for _, row := range tbl.Rows {
		if rel := row[iR]/row[iE] - 1; rel > 0.25 || rel < -0.25 {
			t.Errorf("p=%v: random %v vs analytic %v", row[0], row[iR], row[iE])
		}
		if row[iT] >= row[iR] {
			t.Errorf("p=%v: TopoLB %v not below random %v", row[0], row[iT], row[iR])
		}
	}
	z, err := Fig4(true)
	if err != nil {
		t.Fatal(err)
	}
	// p=64: (8,8) mesh ⊂ (4,4,4) torus; optimal 1.0 attainable and TopoLB
	// should be at or near it.
	if z.Rows[0][0] != 64 {
		t.Fatalf("first row p = %v", z.Rows[0][0])
	}
	if hpb := z.Rows[0][col(z, "topolb")]; hpb > 1.2 {
		t.Errorf("p=64: TopoLB %v, want near optimal 1.0", hpb)
	}
}

func TestFig5Fig6Shape(t *testing.T) {
	for _, gen := range []func(bool) (*Table, error){Fig5, Fig6} {
		tbl, err := gen(true)
		if err != nil {
			t.Fatal(err)
		}
		iR := col(tbl, "random")
		iT := col(tbl, "topolb")
		iTr := col(tbl, "topolb+refine")
		iC := col(tbl, "topocentlb")
		for _, row := range tbl.Rows {
			if row[iT] >= row[iR] {
				t.Errorf("%s p=%v: TopoLB %v not below random %v", tbl.ID, row[0], row[iT], row[iR])
			}
			if row[iTr] > row[iT]+1e-9 {
				t.Errorf("%s p=%v: refine made it worse: %v vs %v", tbl.ID, row[0], row[iTr], row[iT])
			}
			if row[iC] >= row[iR] {
				t.Errorf("%s p=%v: TopoCentLB %v not below random %v", tbl.ID, row[0], row[iC], row[iR])
			}
		}
		// Larger p has sparser quotient graphs, hence bigger relative wins.
		first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
		if gain0, gain1 := 1-first[iT]/first[iR], 1-last[iT]/last[iR]; gain1 <= gain0 {
			t.Logf("%s: note — relative gain did not grow with p (%.2f -> %.2f)", tbl.ID, gain0, gain1)
		}
	}
}

func TestFig7Fig9Shape(t *testing.T) {
	f7, err := Fig7(true)
	if err != nil {
		t.Fatal(err)
	}
	iR, iT, iC := col(f7, "random"), col(f7, "topolb"), col(f7, "topocentlb")
	low := f7.Rows[0]               // most constrained bandwidth
	high := f7.Rows[len(f7.Rows)-1] // most generous
	if low[iR] <= low[iT] {
		t.Errorf("fig7 at low bandwidth: random latency %v not above TopoLB %v", low[iR], low[iT])
	}
	if low[iR] <= low[iC] {
		t.Errorf("fig7 at low bandwidth: random latency %v not above TopoCentLB %v", low[iR], low[iC])
	}
	// Random's latency must degrade far more steeply than TopoLB's.
	if (low[iR] / high[iR]) <= (low[iT] / high[iT]) {
		t.Errorf("fig7: random degradation %vx not above TopoLB %vx",
			low[iR]/high[iR], low[iT]/high[iT])
	}

	f9, err := Fig9(true)
	if err != nil {
		t.Fatal(err)
	}
	iR, iT = col(f9, "random"), col(f9, "topolb")
	low = f9.Rows[0]
	if low[iR] <= low[iT] {
		t.Errorf("fig9 at low bandwidth: random completion %v not above TopoLB %v", low[iR], low[iT])
	}
}

func TestFig10Fig11Shape(t *testing.T) {
	f10, err := Fig10(true)
	if err != nil {
		t.Fatal(err)
	}
	f11, err := Fig11(true)
	if err != nil {
		t.Fatal(err)
	}
	iT, iR := col(f10, "topolb_s"), col(f10, "random_s")
	for _, row := range f10.Rows {
		if row[iT] >= row[iR] {
			t.Errorf("fig10 p=%v: TopoLB %v not below random %v", row[0], row[iT], row[iR])
		}
	}
	// Mesh networks are slower than tori at equal p, most of all for random.
	for i, row := range f11.Rows {
		torusRow := f10.Rows[i]
		if row[0] != torusRow[0] {
			t.Fatalf("size mismatch between fig10 and fig11 rows")
		}
		if row[iR] < torusRow[iR] {
			t.Errorf("p=%v: random on mesh %v faster than on torus %v", row[0], row[iR], torusRow[iR])
		}
	}
}

// TestEmulatorTablesHash pins every float of the quick Table 1, Fig 10
// and Fig 11 rows to the bit. The hash was recorded before the emulator
// read its link loads from metrics.RoutedLoads, an exact rewrite of its
// own routing loop, so it must survive it.
func TestEmulatorTablesHash(t *testing.T) {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range []func(bool) (*Table, error){Table1, Fig10, Fig11} {
		tbl, err := f(true)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tbl.Rows {
			for _, v := range row {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	const want uint64 = 0xa16eca5b5a22e77f
	if got := h.Sum64(); got != want {
		t.Errorf("quick table1+fig10+fig11 rows hash %#x, want %#x", got, want)
	}
}

func TestAblationRegistryRuns(t *testing.T) {
	for _, e := range AblationRegistry() {
		id := e.ID
		tbl, err := e.Run(true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("%s: ragged row", id)
			}
		}
	}
}

func TestAblationRefineMonotonicInPasses(t *testing.T) {
	tbl, err := AblationRefine(true)
	if err != nil {
		t.Fatal(err)
	}
	iFrom := col(tbl, "from_random")
	prev := tbl.Rows[0][iFrom]
	for _, row := range tbl.Rows[1:] {
		if row[iFrom] > prev+1e-9 {
			t.Errorf("refine got worse with more passes: %v after %v", row[iFrom], prev)
		}
		prev = row[iFrom]
	}
}

func TestExtrasRegistryRuns(t *testing.T) {
	for _, e := range ExtrasRegistry() {
		id := e.ID
		tbl, err := e.Run(true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
}

func TestExtrasStrategiesShape(t *testing.T) {
	tbl, err := ExtrasStrategies(true)
	if err != nil {
		t.Fatal(err)
	}
	hpb := col(tbl, "hops_per_byte")
	topolb := tbl.Rows[0][hpb]
	random := tbl.Rows[len(tbl.Rows)-1][hpb]
	if topolb >= random {
		t.Errorf("TopoLB %v not below random %v", topolb, random)
	}
	// Every non-random strategy beats random placement on this workload.
	for _, row := range tbl.Rows[:len(tbl.Rows)-1] {
		if row[hpb] >= random {
			t.Errorf("strategy %v: hops/byte %v not below random %v", row[0], row[hpb], random)
		}
	}
}

func TestExtrasRoutingShape(t *testing.T) {
	tbl, err := ExtrasRouting(true)
	if err != nil {
		t.Fatal(err)
	}
	iR, iT := col(tbl, "random"), col(tbl, "topolb")
	det, ad := tbl.Rows[0], tbl.Rows[1]
	if ad[iR] > det[iR] {
		t.Errorf("adaptive routing raised random latency: %v -> %v", det[iR], ad[iR])
	}
	// TopoLB keeps an advantage even with adaptive routing.
	if ad[iT] >= ad[iR] {
		t.Errorf("TopoLB %v not below random %v under adaptive routing", ad[iT], ad[iR])
	}
}

func TestExtrasHybridShape(t *testing.T) {
	tbl, err := ExtrasHybrid(true)
	if err != nil {
		t.Fatal(err)
	}
	iF, iH := col(tbl, "hpb_flat"), col(tbl, "hpb_hybrid")
	for _, row := range tbl.Rows {
		if row[iH] > 3*row[iF] {
			t.Errorf("p=%v: hybrid %v more than 3x flat %v", row[0], row[iH], row[iF])
		}
	}
}

func TestExtrasModernShape(t *testing.T) {
	tbl, err := ExtrasModern(true)
	if err != nil {
		t.Fatal(err)
	}
	iWin := col(tbl, "win")
	// Torus (row 0) rewards mapping more than the dragonfly (row 2).
	torusWin := tbl.Rows[0][iWin]
	dfWin := tbl.Rows[2][iWin]
	if torusWin <= dfWin {
		t.Errorf("torus win %v not above dragonfly win %v", torusWin, dfWin)
	}
	for _, row := range tbl.Rows {
		if row[iWin] < 1 {
			t.Errorf("machine %v: mapping made things worse (win %v)", row[0], row[iWin])
		}
	}
}

func TestExtrasScalingShape(t *testing.T) {
	tbl, err := ExtrasScaling(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 2 {
		t.Fatal("need at least two sizes")
	}
	// Runtime must grow with p for the flat strategies.
	iT := col(tbl, "topolb_ms")
	first, last := tbl.Rows[0][iT], tbl.Rows[len(tbl.Rows)-1][iT]
	if last <= first {
		t.Errorf("TopoLB runtime did not grow with p: %v -> %v", first, last)
	}
}

func TestExtrasScaleMultilevelShape(t *testing.T) {
	tbl, err := ExtrasScaleMultilevel(true)
	if err != nil {
		t.Fatal(err)
	}
	iRGG, iF, iM := col(tbl, "rgg"), col(tbl, "hpb_flat"), col(tbl, "hpb_ml")
	for _, row := range tbl.Rows {
		if row[iM] <= 0 {
			t.Errorf("n=%v: multilevel hop-bytes %v not positive", row[1], row[iM])
		}
		if row[iF] == 0 {
			continue // flat not run at this size
		}
		// On the structured stencil family multilevel stays within 10% of
		// flat; irregular geometric graphs pay the linear-order trade (see
		// the table notes) but stay within a fixed factor: the worst ratio
		// measured here since the finest level's label-cut pass, 2.37 on
		// rgg:4096 (2.82 before it), plus 10 %.
		bound := 1.1
		if row[iRGG] == 1 {
			bound = 2.61
		}
		if row[iM] > bound*row[iF] {
			t.Errorf("n=%v: multilevel %v exceeds %vx flat %v", row[1], row[iM], bound, row[iF])
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := &Table{
		Columns: []string{"p", "x"},
		Rows:    [][]float64{{64, 1.5}, {128, 2.25}},
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "p,x\n64,1.5\n128,2.25\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
}

func TestExtrasWormholeShape(t *testing.T) {
	tbl, err := ExtrasWormhole(true)
	if err != nil {
		t.Fatal(err)
	}
	iR, iT := col(tbl, "random"), col(tbl, "topolb")
	packet, worm := tbl.Rows[0], tbl.Rows[1]
	if packet[0] != 0 || worm[0] != 1 {
		t.Fatalf("row order changed: %v", tbl.Rows)
	}
	// TopoLB beats random under both contention models.
	if packet[iT] >= packet[iR] {
		t.Errorf("packet mode: TopoLB %v not below random %v", packet[iT], packet[iR])
	}
	if worm[iT] >= worm[iR] {
		t.Errorf("wormhole mode: TopoLB %v not below random %v", worm[iT], worm[iR])
	}
	// The contention models agree where there is no contention: TopoLB's
	// latency barely moves between packet and wormhole, while random
	// placement's contended latency diverges far more between models.
	topoShift := relDiff(worm[iT], packet[iT])
	randShift := relDiff(worm[iR], packet[iR])
	if topoShift > 0.05 {
		t.Errorf("TopoLB latency shifts %.1f%% between contention models, want near-independence", topoShift*100)
	}
	if randShift <= topoShift {
		t.Errorf("contention model changes random placement by %.3f but TopoLB by %.3f; contended flows should diverge more",
			randShift, topoShift)
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

func TestExtrasBufferedShape(t *testing.T) {
	tbl, err := ExtrasBuffered(true)
	if err != nil {
		t.Fatal(err)
	}
	iR, iT := col(tbl, "random"), col(tbl, "topolb")
	tight, unbounded := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if tight[0] != 1 || unbounded[0] != 0 {
		t.Fatalf("row order changed: %v", tbl.Rows)
	}
	// Backpressure hurts random placement more than TopoLB.
	randPenalty := tight[iR] / unbounded[iR]
	topoPenalty := tight[iT] / unbounded[iT]
	if randPenalty <= topoPenalty {
		t.Errorf("buffer pressure penalty: random %vx not above TopoLB %vx", randPenalty, topoPenalty)
	}
	if tight[iT] >= tight[iR] {
		t.Errorf("TopoLB %v not below random %v under tight buffers", tight[iT], tight[iR])
	}
}

// TestExtrasFrontShape: every strategy row for flat machines appears in
// every quick cell its Map accepts (and in no other), the quality columns
// repeat to the bit, and in every cell some row beats random placement on
// hops/byte.
func TestExtrasFrontShape(t *testing.T) {
	first, err := ExtrasFront(true)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ExtrasFront(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Rows) != len(first.Rows) {
		t.Fatalf("second run has %d rows, first %d", len(again.Rows), len(first.Rows))
	}
	ms := col(first, "map_ms")
	for i, row := range first.Rows {
		for c, v := range row {
			if c != ms && math.Float64bits(v) != math.Float64bits(again.Rows[i][c]) {
				t.Errorf("row %d column %s: %v then %v", i, first.Columns[c], v, again.Rows[i][c])
			}
		}
	}

	strategies, err := frontStrategies()
	if err != nil {
		t.Fatal(err)
	}
	random := -1
	for i, s := range strategies {
		if s.NeedsHierarchy {
			t.Errorf("row %s needs a hierarchy but is in the front", s.Name)
		}
		if s.Name == "random" {
			random = i + 1
		}
	}
	if random < 0 {
		t.Fatal("no random row")
	}
	cellCol, stratCol, hpb := col(first, "cell"), col(first, "strategy"), col(first, "hops_per_byte")
	for ci, c := range frontCells[:frontQuick] {
		g, topo, coords, err := frontGraph(c)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int]float64{}
		for _, row := range first.Rows {
			if int(row[cellCol]) == ci+1 {
				got[int(row[stratCol])] = row[hpb]
			}
		}
		for i, s := range strategies {
			_, mapErr := s.New(1, coords).Map(g, topo)
			if _, in := got[i+1]; in != (mapErr == nil) {
				t.Errorf("cell %v, %s: in the table %v, Map error %v", c, s.Name, in, mapErr)
			}
		}
		beaten := false
		for s, v := range got {
			beaten = beaten || (s != random && v < got[random])
		}
		if !beaten {
			t.Errorf("cell %v: no row below random's hops/byte %v", c, got[random])
		}
	}
}

// TestExtrasFrontTauShape: one row per quick cell, every coefficient a
// τ-b in [-1, 1] over the rows extras-front shows for that cell.
func TestExtrasFrontTauShape(t *testing.T) {
	tau, err := ExtrasFrontTau(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tau.Rows) != frontQuick {
		t.Fatalf("%d rows, want one per cell (%d)", len(tau.Rows), frontQuick)
	}
	for _, row := range tau.Rows {
		if row[1] < 2 {
			t.Errorf("cell %v: %v rows", row[0], row[1])
		}
		for _, v := range row[2:] {
			if !(v >= -1 && v <= 1) {
				t.Errorf("cell %v: τ-b %v outside [-1, 1]", row[0], v)
			}
		}
	}
}
