package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("stddev = %v", s.StdDev)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.StdDev != 0 || s.CI95HalfWidth != 0 || s.Median != 7 {
		t.Errorf("summary = %+v", s)
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 {
		t.Errorf("median = %v, want 2.5", s.Median)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on empty sample")
		}
	}()
	Summarize(nil)
}

func TestSweepDeterministic(t *testing.T) {
	s := Sweep(10, func(seed int64) float64 { return float64(seed) })
	if s.N != 10 || s.Mean != 5.5 {
		t.Errorf("sweep summary = %+v", s)
	}
}

func TestRelativeChange(t *testing.T) {
	if got := RelativeChange(10, 7); math.Abs(got+0.3) > 1e-12 {
		t.Errorf("got %v, want -0.3", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic for zero base")
		}
	}()
	RelativeChange(0, 1)
}

func TestStringFormat(t *testing.T) {
	s := Summarize([]float64{2, 2, 2})
	if got := s.String(); got != "2 ± 0 (n=3)" {
		t.Errorf("String() = %q", got)
	}
}

// Property: mean is within [min, max]; stddev non-negative; summaries
// invariant under permutation.
func TestPropertySummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 || s.StdDev < 0 {
			return false
		}
		rev := make([]float64, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		s2 := Summarize(rev)
		return math.Abs(s.Mean-s2.Mean) < 1e-9 && s.Median == s2.Median
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestKendallTauBHandComputed checks τ-b against vectors counted by hand:
// C and D are the concordant and discordant pairs, tx and ty the pairs
// tied in x and in y, and τ-b = (C − D)/√((n₀ − tx)(n₀ − ty)).
func TestKendallTauBHandComputed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		xs, ys []float64
		want   float64
	}{
		{"same order", []float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}, 1},
		{"reversed", []float64{1, 2, 3, 4}, []float64{4, 3, 2, 1}, -1},
		// C = 7, D = 3 over 10 pairs.
		{"no ties", []float64{1, 2, 3, 4, 5}, []float64{3, 1, 2, 5, 4}, 0.4},
		// C = 4, D = 0, one pair tied in x, another tied in y: 4/√(5·5).
		{"one tie each", []float64{1, 2, 2, 3}, []float64{1, 2, 3, 3}, 0.8},
		// The first pair is tied in both; the other two are discordant.
		{"tied in both", []float64{1, 1, 2}, []float64{5, 5, 1}, -1},
		// C = 2, D = 6, tx = 2, ty = 1 over 10 pairs: −4/√(8·9).
		{"ties on both sides", []float64{12, 2, 1, 12, 2}, []float64{1, 4, 7, 1, 0}, -4 / math.Sqrt(72)},
	} {
		if got := KendallTauB(tc.xs, tc.ys); math.Abs(got-tc.want) > 1e-15 {
			t.Errorf("%s: τ-b = %v, want %v", tc.name, got, tc.want)
		}
		if got := KendallTauB(tc.ys, tc.xs); math.Abs(got-tc.want) > 1e-15 {
			t.Errorf("%s, arguments swapped: τ-b = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestKendallTauBUndefined(t *testing.T) {
	for _, xs := range [][]float64{nil, {1}, {2, 2, 2}} {
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = float64(i)
		}
		if got := KendallTauB(xs, ys); !math.IsNaN(got) {
			t.Errorf("τ-b(%v, %v) = %v, want NaN", xs, ys, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic for samples of different lengths")
		}
	}()
	KendallTauB([]float64{1, 2}, []float64{1})
}
