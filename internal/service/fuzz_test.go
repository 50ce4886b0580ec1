package service

import (
	"encoding/json"
	"errors"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fuzzMaxTasks is the task limit the fuzz targets run under, small enough
// that every strategy finishes a job in milliseconds.
const fuzzMaxTasks = 256

// fuzzSeeds is the shared corpus: the determinism workload, the README's
// curl examples, and one job per request feature they leave out.
func fuzzSeeds(f *testing.F) {
	for _, spec := range append(testJobs(), autoJob(), hierJob(), inlineJob(inlineSquare), inlineJob(inlineSquareAlt)) {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		`{"graph":{"pattern":"mesh2d:16,16"},"topology":"torus:16,16","strategy":"topolb","metrics":true}`,
		`{"graph":{"pattern":"stencil9:64,64"},"topology":"torus:16,16","strategy":"auto","auto_budget_ms":500}`,
		`{"graph":{"pattern":"stencil9:4,3"},"topology":"hier:pod:2/rack:4/node:8:torus-2x4","strategy":"hier",
		  "constraints":[{"level":"rack","kind":"required"},{"level":"node","kind":"preferred"}]}`,
		`{"graph":{"pattern":"mesh2d:8,8"},"topology":"torus:8,8","strategy":"topocentlb"}`,
		`{"graph":{"pattern":"stencil9:8,8"},"topology":"torus:8,8","sim":{"iterations":3,"link_bandwidth":1e8}}`,
		`{"graph":{"pattern":"mesh2d:4,4"},"hierarchy":{"levels":[{"name":"pod","count":2,"bandwidth":0.01},{"name":"node","count":2}],"leaf":"mesh-2x2"},"strategy":"auto"}`,
		`{"graph":{"pattern":"ring:16"},"topology":"hypercube:4","strategy":"hybrid:2x2","refine":true}`,
		`{"graph":{"pattern":"mesh2d:2,2"},"topology":"fattree:2,2","strategy":"psychic"}`,
		`{"topology":"hier:pod","graph":{"pattern":"klein:4,4"},"constraints":[{"level":"pod","kind":"mandatory"}]}`,
		// Below and above a pattern row's bounds, where the generators panic.
		`{"graph":{"pattern":"ring:2"},"topology":"torus:2"}`,
		`{"graph":{"pattern":"torus2d:2,2"},"topology":"torus:2,2"}`,
		`{"graph":{"pattern":"butterfly:21"},"topology":"hypercube:4"}`,
		`{"graph":{"pattern":"mesh2d:4,4","msg_bytes":-5},"topology":"torus:4,4"}`,
	} {
		f.Add([]byte(seed))
	}
}

var numberRun = regexp.MustCompile(`[0-9]+`)

// volume multiplies the numbers in a spec string, saturating at 1<<30:
// an upper bound on the size of the operand a grid-like spec names.
func volume(spec string) int {
	v := 1
	for _, run := range numberRun.FindAllString(spec, -1) {
		n, err := strconv.Atoi(run)
		if err != nil || n > 1<<30 {
			return 1 << 30
		}
		if n > 0 {
			v *= n
		}
		if v > 1<<30 {
			return 1 << 30
		}
	}
	return v
}

// fuzzTooBig reports whether building spec's operands would take longer
// than a fuzz iteration may. Memory is not its business: patterns and
// machines above 2^22 are refused on their numbers, before anything is
// laid out. Below that a machine still costs time in proportion to its
// size — hypercube:22 lays out for seconds, and the fuzzing engine kills a
// worker that sits on one input that long — and the numbers of a
// hypercube or fat-tree are exponents, so those are kept tiny.
func fuzzTooBig(spec *Job) bool {
	machine := strings.ToLower(spec.Topology)
	if spec.Hierarchy != nil {
		machine += " " + strings.ToLower(spec.Hierarchy.Leaf)
	}
	if strings.Contains(machine, "hypercube") || strings.Contains(machine, "fattree") {
		for _, run := range numberRun.FindAllString(machine, -1) {
			if len(run) > 1 || run[0] > '6' {
				return true
			}
		}
	}
	return volume(machine) > 1<<16 || volume(spec.Graph.Pattern) > 1<<11
}

// FuzzJobName: arbitrary request bytes through the decoder and the name
// pass never panic, and either fail with a typed error or produce a key —
// the same key every time.
func FuzzJobName(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Job
		if err := decodeStrict(data, &spec); err != nil {
			wantJobError(t, err)
			return
		}
		if strings.EqualFold(strings.TrimSpace(spec.Strategy), "auto") && fuzzTooBig(&spec) {
			return // an auto job with no budget builds while it is named
		}
		j, err := name(spec, fuzzMaxTasks)
		if err != nil {
			wantJobError(t, err)
			return
		}
		if len(j.key) != 64 {
			t.Fatalf("key %q is not a hex SHA-256", j.key)
		}
		again, err := name(spec, fuzzMaxTasks)
		if err != nil || again.key != j.key {
			t.Fatalf("naming is not repeatable: %q then %q (%v)", j.key, again.key, err)
		}
		if renamed, err := name(j.spec, fuzzMaxTasks); err != nil || renamed.key != j.key {
			t.Fatalf("the normalized job names differently: %q then %v (%v)", j.key, renamed, err)
		}
	})
}

// FuzzJobBuild: a job that names goes on through build and compute, and
// every outcome is a typed error or a valid placement of every task.
func FuzzJobBuild(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Job
		if decodeStrict(data, &spec) != nil || fuzzTooBig(&spec) {
			return
		}
		j, err := name(spec, fuzzMaxTasks)
		if err != nil {
			return
		}
		if err := j.build(); err != nil {
			wantJobError(t, err)
			return
		}
		if fuzzTooSlow(j) {
			return
		}
		res, err := j.compute()
		if err != nil {
			wantJobError(t, err)
			return
		}
		if res.Tasks != j.graph.NumVertices() || len(res.Mapping) != res.Tasks {
			t.Fatalf("placement has %d entries for %d tasks (graph has %d)", len(res.Mapping), res.Tasks, j.graph.NumVertices())
		}
		used := make(map[int]bool, len(res.Mapping))
		for task, p := range res.Mapping {
			if p < 0 || p >= j.mapTopo.Nodes() {
				t.Fatalf("task %d on processor %d, outside [0,%d)", task, p, j.mapTopo.Nodes())
			}
			if !j.partitioned && used[p] {
				t.Fatalf("processor %d holds two tasks of a one-task-per-processor job", p)
			}
			used[p] = true
		}
		if _, err := encodeResult(res); err != nil {
			t.Fatalf("result does not encode: %v", err)
		}
	})
}

// fuzzTooSlow reports whether computing a built job would take longer
// than a fuzz iteration may: a packing region far larger than the job,
// or a simulation of too many events. Slow, not wrong.
func fuzzTooSlow(j *job) bool {
	if j.mapTopo.Nodes() > 4*fuzzMaxTasks {
		return true
	}
	if s := j.spec.Sim; s != nil {
		unit := 64 // the default flit size
		if s.PacketSize > 0 {
			unit = min(unit, s.PacketSize)
		}
		if s.FlitSize > 0 {
			unit = min(unit, s.FlitSize)
		}
		if events := j.graph.TotalComm() / float64(unit) * float64(s.Iterations); !(events < 1e5) {
			return true
		}
	}
	return false
}

func wantJobError(t *testing.T, err error) {
	t.Helper()
	var je *jobError
	if !errors.As(err, &je) || je.status < 400 || je.status > 599 || je.msg == "" {
		t.Fatalf("error %v (%T) is not a typed job error", err, err)
	}
}
