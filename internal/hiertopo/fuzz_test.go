package hiertopo

import (
	"encoding/json"
	"math"
	"testing"
)

// requireRoundTrip fails unless Parse(h.Spec()) is h again: same
// processor count, same canonical spec, and the same diverging level for
// pairs of ranks sampled at every scale of the machine. It also holds h
// to what resolveLevels promises of Distance: crossing any level costs at
// least one link, and never more than crossing a level outside it.
func requireRoundTrip(t *testing.T, h *Hierarchy) {
	t.Helper()
	again, err := Parse(h.Spec())
	if err != nil {
		t.Fatalf("Parse(Spec() = %q): %v", h.Spec(), err)
	}
	if again.Nodes() != h.Nodes() || again.Spec() != h.Spec() {
		t.Fatalf("%q reparsed as %q with %d processors, want %d", h.Spec(), again.Spec(), again.Nodes(), h.Nodes())
	}
	n := h.Nodes()
	for a := 0; a < n; a += 1 + n/7 {
		for step := 1; step <= n; step *= 3 {
			b := (a + step) % n
			if got, want := again.DivergeLevel(a, b), h.DivergeLevel(a, b); got != want || want < -1 || want >= h.NumLevels() {
				t.Fatalf("%q: DivergeLevel(%d,%d) = %d, reparsed %d", h.Spec(), a, b, want, got)
			}
		}
	}
	// Rank InstanceSize(i) is the first outside instance 0 of level i, so
	// (0, InstanceSize(i)) crosses level i or, when fan-outs of 1 stand in
	// between, a level outside it.
	outer := math.MaxInt
	for i := 0; i < h.NumLevels(); i++ {
		if h.InstanceSize(i) == n {
			continue // a single instance: nothing crosses it
		}
		d := h.Distance(0, h.InstanceSize(i))
		if d < 1 || d > outer {
			t.Fatalf("%q: crossing level %d costs %d, a level outside it %d", h.Spec(), i, d, outer)
		}
		outer = d
	}
}

// FuzzHierParse: the compact spec parser never panics, never builds more
// than it may, and what it accepts survives a round trip through Spec().
func FuzzHierParse(f *testing.F) {
	for _, seed := range []string{
		"pod:2/rack:4/node:8:torus-2x4", "pod:2", "pod:2@50/rack:4@50", "pod:2@5/rack:4@50",
		"pod:2@1e300/rack:4@1.5:mesh-3", "pod:2/pod:3", "a:1/b:1/c:1/d:1/e:1/f:1", "a:1/b:1/c:1/d:1/e:1/f:1/g:1",
		"pod:2:hypercube-20", "pod:2:torus-64x64x16", "pod:2:fattree-16x5", "pod:2:mesh-4096",
		"pod:4096/rack:1024", "pod:4096/rack:4096", "pod:2:hypercube-30", "pod:2:fattree-1x99999999",
		"pod:2:mesh--100x-100", "pod:2:mesh-4611686018427387904x4", "pod:0", "pod:2:", "pod", ":", "/", "",
		"Pod:2", "pod:2@nan", "pod:2@-1", "pod:2:torus-2x4/rack:2", "pod:2:ring-4", "pod:2:a:b",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		h, err := Parse(spec)
		if err != nil {
			return
		}
		requireRoundTrip(t, h)
	})
}

// FuzzHierSpec: the JSON wire form. Build never panics; what it accepts
// round-trips; and Canonical, which reads the text alone, names the same
// machine Build constructs whenever both succeed.
func FuzzHierSpec(f *testing.F) {
	for _, seed := range []string{
		`{"levels":[{"name":"pod","count":2},{"name":"rack","count":4},{"name":"node","count":8}],"leaf":"torus-2x4"}`,
		`{"levels":[{"name":" Pod ","count":2,"bandwidth":0.01},{"name":"rack","count":4,"cost":50,"latency":1e-6}]}`,
		`{"levels":[{"name":"pod","count":2},{"name":"pod","count":2}]}`,
		`{"levels":[{"name":"pod","count":2}],"leaf":"hypercube-20"}`,
		`{"levels":[{"name":"pod","count":2}],"leaf":"torus-64x64x16"}`,
		`{"levels":[{"name":"pod","count":2}],"leaf":"fattree-16x5"}`,
		`{"levels":[{"name":"pod","count":2}],"leaf":"TORUS-0x4"}`,
		`{"levels":[{"name":"a","count":1},{"name":"b","count":1},{"name":"c","count":1},{"name":"d","count":1},{"name":"e","count":1},{"name":"f","count":1},{"name":"g","count":1}]}`,
		`{"levels":[{"name":"pod","count":4096},{"name":"rack","count":1024}],"leaf":"mesh-8"}`,
		`{"levels":[{"name":"pod","count":2,"cost":-1}]}`, `{"levels":[]}`, `{}`, `[]`, `{"levels":[{"count":1e99}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		canon, cerr := s.Canonical()
		h, err := s.Build()
		if err != nil {
			return
		}
		if cerr != nil || canon != h.Spec() {
			t.Fatalf("%s: Canonical() = %q, %v; Build().Spec() = %q", data, canon, cerr, h.Spec())
		}
		requireRoundTrip(t, h)
	})
}
