package benchtab

import "testing"

// TestTableShape: (suite, name) names a row; every suite has a smoke
// tier, which is some of its rows and not all of the table; a reference
// side comes with the name of what it is.
func TestTableShape(t *testing.T) {
	rows := Rows()
	seen := map[[2]string]bool{}
	smoke, full := map[string]int{}, map[string]int{}
	for _, r := range rows {
		id := [2]string{r.Suite, r.Name}
		if seen[id] {
			t.Errorf("row %v appears twice", id)
		}
		seen[id] = true
		if r.Run == nil || (r.Ref == nil) != (r.RefName == "") {
			t.Errorf("row %v: Run %v, Ref set %v, RefName %q", id, r.Run != nil, r.Ref != nil, r.RefName)
		}
		full[r.Suite]++
		if r.Smoke {
			smoke[r.Suite]++
		}
	}
	for suite, n := range full {
		if smoke[suite] == 0 || smoke[suite] > n {
			t.Errorf("suite %s: %d smoke rows of %d", suite, smoke[suite], n)
		}
		sel := Select(rows, suite, true)
		if len(sel) != smoke[suite] {
			t.Errorf("Select(%s, smoke) = %d rows, want %d", suite, len(sel), smoke[suite])
		}
		for _, r := range sel {
			if !seen[[2]string{r.Suite, r.Name}] || r.Suite != suite {
				t.Errorf("smoke row %s/%s is not a row of the %s suite", r.Suite, r.Name, suite)
			}
		}
	}
	if all, some := len(Select(rows, "all", false)), len(Select(rows, "all", true)); all != len(rows) || some >= all {
		t.Errorf("Select(all): %d full and %d smoke rows of %d", all, some, len(rows))
	}
}

// TestMeasureOneRow runs the runner over the cheapest real row: every
// width appears once, the exact column is carried, the spread brackets
// the median, and the reference side comes first with the ratio on the
// run side.
func TestMeasureOneRow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs testing.Benchmark for a few seconds")
	}
	row := Row{Suite: "t", Name: "sum", RefName: "slow",
		Run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(42, "events/op")
		},
		Ref: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := 0; j < 1000; j++ {
				}
			}
			b.ReportMetric(7, "hop-bytes")
		},
	}
	results, err := Measure([]Row{row}, 1, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(widths()) {
		t.Fatalf("%d results, want a reference and a run side at each of %v", len(results), widths())
	}
	for i, w := range widths() {
		ref, run := results[2*i], results[2*i+1]
		if ref.Ref != "slow" || run.Ref != "" || ref.GOMAXPROCS != w || run.GOMAXPROCS != w {
			t.Errorf("width %d: sides %q/%q at %d/%d", w, ref.Ref, run.Ref, ref.GOMAXPROCS, run.GOMAXPROCS)
		}
		if run.EventsPerOp != 42 || run.EventsPerSec <= 0 || ref.HopBytes != 7 || run.SpeedupVsRef <= 0 {
			t.Errorf("width %d: run %+v ref %+v", w, run, ref)
		}
		if run.NsMin > run.NsPerOp || run.NsPerOp > run.NsMax || run.Runs != 1 {
			t.Errorf("width %d: median %v outside [%v, %v] or runs %d", w, run.NsPerOp, run.NsMin, run.NsMax, run.Runs)
		}
	}
}
