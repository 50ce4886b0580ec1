package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hiertopo"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Job is the wire form of one mapping request: a task graph, a topology,
// a strategy, and optional evaluation passes. The response body is a pure
// function of the normalized Job — the determinism contract that makes
// cross-request caching and coalescing sound.
type Job struct {
	// Graph selects the task graph: a built-in pattern spec or an inline
	// graph in the taskgraph JSON format.
	Graph GraphSpec `json:"graph"`
	// Topology is a spec like "torus:16,16" or "hier:pod:2/rack:4/
	// node:8:torus-2x4" (see internal/cliutil).
	Topology string `json:"topology"`
	// Hierarchy describes a hierarchical machine structurally (see
	// internal/hiertopo); mutually exclusive with Topology. The job runs
	// exactly as if Topology were "hier:" plus the canonical compact
	// spec, so the two forms share cache entries.
	Hierarchy *hiertopo.Spec `json:"hierarchy,omitempty"`
	// Constraints restrict placement to a single instance of named
	// hierarchy levels; only valid on hierarchical topologies. A job
	// smaller than the machine packs onto the lowest-ranked processors
	// of its innermost feasible constrained level.
	Constraints []Constraint `json:"constraints,omitempty"`
	// Strategy is a name like "topolb" (see internal/cliutil), or "auto"
	// to let the service run its budgeted strategy portfolio and return
	// the best mapping by hop-bytes. Default "topolb".
	Strategy string `json:"strategy,omitempty"`
	// Seed drives randomized strategies. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// AutoBudgetMS bounds the "auto" portfolio's compute budget in
	// milliseconds via the deterministic cost model (see auto.go). Only
	// valid with strategy "auto"; 0 derives a default from the job size.
	AutoBudgetMS int `json:"auto_budget_ms,omitempty"`
	// Refine applies RefineTopoLB on top of the strategy's mapping.
	Refine bool `json:"refine,omitempty"`
	// Metrics includes the full quality report (dilation, cardinality,
	// routed link loads) in the response.
	Metrics bool `json:"metrics,omitempty"`
	// Sim runs a discrete-event simulation of the mapped program and
	// reports completion time and network statistics.
	Sim *SimSpec `json:"sim,omitempty"`
}

// GraphSpec names a task graph. Exactly one of Pattern or Inline must be
// set.
type GraphSpec struct {
	// Pattern is a generator spec like "mesh2d:16,16": a row of
	// patternTable in internal/cliutil/patterns.go.
	Pattern string `json:"pattern,omitempty"`
	// MsgBytes is the per-edge byte count for pattern generators.
	// Default 1e5.
	MsgBytes float64 `json:"msg_bytes,omitempty"`
	// Seed drives randomized pattern generators. Defaults to the job
	// seed.
	Seed int64 `json:"seed,omitempty"`
	// Inline is a graph in the taskgraph JSON format ({"name": ...,
	// "vertexWeights": [...], "edges": [[a,b],...], "edgeWeights":
	// [...]}).
	Inline json.RawMessage `json:"inline,omitempty"`
}

// Constraint restricts placement to one instance of a hierarchy level:
// {"level": "rack", "kind": "required"} demands the whole job fit inside
// a single rack.
type Constraint struct {
	// Level names a level of the job's hierarchy.
	Level string `json:"level"`
	// Kind is "required" (an infeasible constraint rejects the job) or
	// "preferred" (an infeasible constraint is recorded as unsatisfied
	// and placement falls back outward). Default "required".
	Kind string `json:"kind,omitempty"`
}

// ConstraintResult reports one constraint's outcome, verified against
// the actual placement the response carries.
//
// Wire order matches the normalized constraint order: by level
// (outermost first), then kind.
type ConstraintResult struct {
	Level     string `json:"level"`
	Kind      string `json:"kind"`
	Satisfied bool   `json:"satisfied"`
	// Reason explains an unsatisfied constraint.
	Reason string `json:"reason,omitempty"`
}

// SimSpec configures the optional per-job netsim evaluation pass.
type SimSpec struct {
	// Iterations is the number of program iterations to replay. Default 1.
	Iterations int `json:"iterations,omitempty"`
	// ComputeTime is per-task seconds of computation per iteration.
	ComputeTime float64 `json:"compute_time,omitempty"`
	// LinkBandwidth is bytes/second per link. Default 1e9.
	LinkBandwidth float64 `json:"link_bandwidth,omitempty"`
	// LinkLatency is seconds per hop. Default 1e-6.
	LinkLatency float64 `json:"link_latency,omitempty"`
	// PacketSize splits messages into packets (0 = whole messages).
	PacketSize int `json:"packet_size,omitempty"`
	// Adaptive enables adaptive minimal routing.
	Adaptive bool `json:"adaptive,omitempty"`
	// BufferPackets enables credit-based flow control with that many
	// downstream buffers per (link, VC).
	BufferPackets int `json:"buffer_packets,omitempty"`
	// Mode selects the contention model: "packet" (default) or
	// "wormhole" (flit-level cut-through with head-of-line blocking).
	Mode string `json:"mode,omitempty"`
	// FlitSize is the wormhole flit payload in bytes (0 = simulator
	// default).
	FlitSize int `json:"flit_size,omitempty"`
	// FlitBuffer is the wormhole per-(link, VC) flit buffer depth (0 =
	// simulator default).
	FlitBuffer int `json:"flit_buffer,omitempty"`
	// CollectLatencies records per-message latencies so the stats carry
	// P50/P95/P99.
	CollectLatencies bool `json:"collect_latencies,omitempty"`
}

// config is the simulator configuration s spells, in mode, on machine t.
func (s *SimSpec) config(mode netsim.Mode, t topology.Router) netsim.Config {
	return netsim.Config{
		Topology:         t,
		LinkBandwidth:    s.LinkBandwidth,
		LinkLatency:      s.LinkLatency,
		PacketSize:       s.PacketSize,
		Adaptive:         s.Adaptive,
		BufferPackets:    s.BufferPackets,
		Mode:             mode,
		FlitSize:         s.FlitSize,
		FlitBuffer:       s.FlitBuffer,
		CollectLatencies: s.CollectLatencies,
	}
}

// JobResult is the response body for one completed job. Field order is
// the wire order; the body is cached and must be identical to what a
// direct library call would produce.
//
//lint:ignore jsoncontract float fields marshal via Go's shortest-form strconv — deterministic for identical inputs; wire bytes pinned by cache equality and golden tests
type JobResult struct {
	Strategy    string  `json:"strategy"`
	Topology    string  `json:"topology"`
	Graph       string  `json:"graph"`
	Tasks       int     `json:"tasks"`
	Mapping     []int   `json:"mapping"`
	HopBytes    float64 `json:"hop_bytes"`
	HopsPerByte float64 `json:"hops_per_byte"`
	// EdgeCut and Imbalance report the phase-one partition quality for
	// jobs with more tasks than processors (two-phase pipeline); both are
	// omitted for one-task-per-processor jobs.
	EdgeCut   float64 `json:"edge_cut,omitempty"`
	Imbalance float64 `json:"imbalance,omitempty"`
	// Constraints reports each placement constraint's outcome on
	// hierarchical jobs that set any.
	Constraints []ConstraintResult `json:"constraints,omitempty"`
	Auto        *AutoReport        `json:"auto,omitempty"`
	Report      *metrics.Report    `json:"report,omitempty"`
	Sim         *SimResult         `json:"sim,omitempty"`
}

// SimResult carries the netsim evaluation outputs.
//
//lint:ignore jsoncontract float fields marshal via Go's shortest-form strconv — deterministic for identical inputs; wire bytes pinned by cache equality and golden tests
type SimResult struct {
	CompletionTime float64      `json:"completion_time"`
	Stats          netsim.Stats `json:"stats"`
}

// job is one request on its way to a response body. name fills the
// upper half from the request text alone — enough to look the result up;
// build fills the operands, and runs only when the lookup misses.
type job struct {
	spec Job    // normalized: defaults applied, canonical spellings
	key  string // content key of the response body
	// row is the strategy table's row for spec.Strategy; unset for auto
	// jobs (the portfolio picks per run).
	row cliutil.StrategyRow
	// auto marks a portfolio job: compute runs every admitted candidate
	// and returns the best mapping by hop-bytes.
	auto bool
	// structural marks a machine submitted through the hierarchy field,
	// whose construction errors keep that field's name in their message.
	structural bool
	// maxTasks bounds the task count build accepts (0 = unbounded).
	maxTasks int

	// Operands, set by build (graph already by name for inline graphs).
	built bool
	graph *taskgraph.Graph
	topo  topology.Topology
	// hier is the topology's hierarchy view, nil on flat machines.
	hier *hiertopo.Hierarchy
	// mapTopo is the topology strategies actually map onto: topo, or the
	// rank-prefix subtree a feasible placement constraint packs into.
	// Subtree distances equal the parent's on the prefix, so metrics
	// against topo match metrics against mapTopo exactly.
	mapTopo topology.Topology
	// cres is the normalized constraints' feasibility outcome, verified
	// against the final placement by verifyConstraints.
	cres []ConstraintResult
	// partitioned marks a job with more tasks than processors, served by
	// the two-phase partition→map pipeline.
	partitioned bool
	// packed marks a constrained hierarchical job with fewer tasks than
	// processors, served by a packing-capable Placer (strategy hier).
	packed bool
	// coords are the pattern's task positions for the geometric strategies
	// (nil for inline graphs and geometry-free patterns).
	coords [][]float64
	// strat is row's strategy built with the job's seed and coords, under
	// RefineTopoLB when the job asks for refinement; nil for auto jobs.
	strat core.Strategy
	// stats is the owning server's counter block, set by the worker before
	// compute; nil when compute is driven directly (tests).
	stats *serverStats
}

// jobError is a client-side job defect carrying the HTTP status the
// handlers should report.
type jobError struct {
	status int
	msg    string
}

func (e *jobError) Error() string { return e.msg }

func badJob(status int, format string, args ...any) *jobError {
	return &jobError{status: status, msg: fmt.Sprintf(format, args...)}
}

// faultHook, when set, runs at the start of build and of compute with the
// stage's name and the job, and at the start of a session batch's two
// stages ("session-apply", "session-refine") with no job. Only tests set
// it, to panic inside a chosen stage and prove the daemon contains the
// fault.
var faultHook func(stage string, spec *Job)

// name validates spec's text, applies defaults, rewrites every equivalent
// spelling to one canonical form and derives the content key — without
// building the graph, the machine or the coordinates, so a request the
// result cache can answer costs O(request bytes). maxTasks is the bound
// build will enforce (0 = unbounded).
//
// Two kinds of job cannot be named from text and pay for operands here,
// once: an inline graph's canonical bytes are its parsed graph's
// WriteJSON (duplicate edges accumulate, zero-weight edges drop), which
// is itself O(request bytes), and the parsed graph is kept for build; an
// auto job that leaves auto_budget_ms unset hashes a default derived from
// the operand sizes, so it is built before it is named.
func name(spec Job, maxTasks int) (*job, error) {
	spec.Topology = strings.ToLower(strings.TrimSpace(spec.Topology))
	spec.Strategy = strings.ToLower(strings.TrimSpace(spec.Strategy))
	spec.Graph.Pattern = strings.ToLower(strings.TrimSpace(spec.Graph.Pattern))
	j := &job{maxTasks: maxTasks}
	if spec.Hierarchy != nil {
		if spec.Topology != "" {
			return nil, badJob(400, "job: topology and hierarchy are mutually exclusive")
		}
		canon, err := spec.Hierarchy.Canonical()
		if err != nil {
			return nil, badJob(400, "job: hierarchy: %v", err)
		}
		// Normalize to the canonical compact spec so structural and
		// compact submissions of the same machine share a content key.
		spec.Topology = "hier:" + canon
		spec.Hierarchy = nil
		j.structural = true
	}
	if spec.Topology == "" {
		return nil, badJob(400, "job: topology is required")
	}
	hierSpec, isHier := strings.CutPrefix(spec.Topology, "hier:")
	if len(spec.Constraints) > 0 && !isHier {
		return nil, badJob(400, "job: constraints require a hierarchical topology (hier:SPEC or the hierarchy field)")
	}
	if spec.Strategy == "" {
		spec.Strategy = "topolb"
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	j.auto = spec.Strategy == "auto"
	if j.auto && spec.Refine {
		return nil, badJob(400, "job: strategy auto picks its own strategies; refine is not supported")
	}
	if spec.AutoBudgetMS < 0 {
		return nil, badJob(400, "job: auto_budget_ms must be non-negative")
	}
	if spec.AutoBudgetMS != 0 && !j.auto {
		return nil, badJob(400, "job: auto_budget_ms requires strategy \"auto\"")
	}
	if (spec.Graph.Pattern == "") == (len(spec.Graph.Inline) == 0) {
		return nil, badJob(400, "job: exactly one of graph.pattern or graph.inline is required")
	}
	if spec.Graph.Pattern != "" {
		//lint:ignore floatcmp literal 0 is the JSON unset sentinel for msg_bytes, replaced by the default
		if spec.Graph.MsgBytes == 0 {
			spec.Graph.MsgBytes = 1e5
		}
		if spec.Graph.Seed == 0 {
			spec.Graph.Seed = spec.Seed
		}
	} else {
		spec.Graph.MsgBytes = 0
		spec.Graph.Seed = 0
	}
	if spec.Sim != nil {
		sim := *spec.Sim // normalized copy; never alias caller memory
		if sim.Iterations == 0 {
			sim.Iterations = 1
		}
		if sim.Iterations < 0 {
			return nil, badJob(400, "job: sim.iterations must be positive")
		}
		//lint:ignore floatcmp literal 0 is the JSON unset sentinel for link_bandwidth, replaced by the default
		if sim.LinkBandwidth == 0 {
			sim.LinkBandwidth = 1e9
		}
		//lint:ignore floatcmp literal 0 is the JSON unset sentinel for link_latency, replaced by the default
		if sim.LinkLatency == 0 {
			sim.LinkLatency = 1e-6
		}
		sim.Mode = strings.ToLower(strings.TrimSpace(sim.Mode))
		mode, err := netsim.ParseMode(sim.Mode)
		if err != nil {
			return nil, badJob(400, "job: sim: %v", err)
		}
		if sim.ComputeTime < 0 {
			return nil, badJob(400, "job: sim.compute_time must be non-negative")
		}
		cfg := sim.config(mode, nil)
		if err := cfg.CheckSettings(); err != nil {
			return nil, badJob(400, "job: sim: %v", err)
		}
		spec.Sim = &sim
	}
	var err error
	if len(spec.Constraints) > 0 {
		spec.Constraints, err = normalizeConstraints(spec.Constraints, hiertopo.LevelNames(hierSpec))
		if err != nil {
			return nil, err
		}
	}
	if !j.auto {
		j.row, err = cliutil.FindStrategy(spec.Strategy)
		if err != nil {
			return nil, badJob(400, "job: %v", err)
		}
		if j.row.NeedsHierarchy && !isHier {
			return nil, badJob(400, "job: strategy %s requires a hierarchical topology (hier:SPEC or the hierarchy field)", spec.Strategy)
		}
	}
	var graphBytes []byte
	if spec.Graph.Pattern == "" {
		j.graph, err = taskgraph.ParseJSON(spec.Graph.Inline)
		if err != nil {
			return nil, badJob(400, "job: inline graph: %v", err)
		}
		// Canonicalize the inline graph for hashing: WriteJSON emits
		// vertices and edges in a fixed order regardless of the order the
		// client listed them. A canonical request is those bytes less the
		// newline, so its length sizes the buffer.
		graphBytes, err = j.graph.AppendJSON(make([]byte, 0, len(spec.Graph.Inline)+1))
		if err != nil {
			return nil, badJob(500, "job: canonicalize inline graph: %v", err)
		}
	}
	j.spec = spec
	if j.auto && spec.AutoBudgetMS == 0 {
		// Resolve the default before hashing, so an explicit budget equal
		// to the derived default shares the cache entry.
		if err := j.build(); err != nil {
			return nil, err
		}
		j.spec.AutoBudgetMS = defaultAutoBudgetMS(j.graph.NumVertices(), j.graph.NumEdges(), j.mapTopo.Nodes(), j.hier != nil)
	}
	j.key = contentKey(&j.spec, graphBytes)
	return j, nil
}

// build materializes a named job's operands — the machine, the task
// graph, the pattern's coordinates, the constraint packing region — and
// applies every check that needs them. It runs once per job (a second
// call is a no-op), and only for jobs the result cache could not answer.
func (j *job) build() error {
	if j.built {
		return nil
	}
	if faultHook != nil {
		faultHook("build", &j.spec)
	}
	spec := &j.spec
	var err error
	if spec.Sim != nil {
		// The simulator needs per-link routes.
		j.topo, err = cliutil.ParseTopology(spec.Topology)
	} else {
		j.topo, err = cliutil.ParseAnyTopology(spec.Topology)
	}
	if err != nil {
		if j.structural && spec.Sim == nil {
			return badJob(400, "job: hierarchy: %v", err)
		}
		return badJob(400, "job: %v", err)
	}
	j.mapTopo = j.topo
	j.hier, _ = j.topo.(*hiertopo.Hierarchy)
	if spec.Graph.Pattern != "" {
		// A pattern is sized from its spec: one past the task limit is
		// refused before its graph is built.
		tasks, _, err := cliutil.PatternSize(spec.Graph.Pattern, spec.Graph.MsgBytes)
		if err != nil {
			return badJob(400, "job: %v", err)
		}
		if err := j.checkTasks(tasks); err != nil {
			return err
		}
		j.graph, err = cliutil.ParsePattern(spec.Graph.Pattern, spec.Graph.MsgBytes, spec.Graph.Seed)
		if err != nil {
			return badJob(400, "job: %v", err)
		}
	}
	if err := j.checkTasks(j.graph.NumVertices()); err != nil {
		return err
	}
	if len(spec.Constraints) > 0 {
		if err := j.resolveConstraints(spec.Constraints); err != nil {
			return err
		}
	}
	switch {
	case j.graph.NumVertices() < j.mapTopo.Nodes() && len(spec.Constraints) > 0:
		// A constrained hierarchical job smaller than its packing region
		// packs onto the region's lowest-ranked processors.
		j.packed = true
	case j.graph.NumVertices() < j.mapTopo.Nodes():
		return badJob(400, "job: graph has %d tasks but topology has %d processors (tasks must fill the machine)",
			j.graph.NumVertices(), j.topo.Nodes())
	case j.graph.NumVertices() > j.mapTopo.Nodes():
		// More tasks than processors: serve through the two-phase
		// partition→map pipeline.
		j.partitioned = true
	}
	// Pattern geometry feeds the geometric strategies; inline graphs and
	// geometry-free patterns leave coords nil (graph-BFS fallback).
	if spec.Graph.Pattern != "" {
		j.coords = cliutil.PatternCoords(spec.Graph.Pattern, spec.Graph.Seed)
	}
	if !j.auto {
		j.strat = j.row.New(spec.Seed, j.coords)
		if spec.Refine {
			j.strat = core.RefineTopoLB{Base: j.strat}
		}
	}
	j.built = true
	return nil
}

// checkTasks refuses a graph of more tasks than the job's limit.
func (j *job) checkTasks(tasks int) error {
	if j.maxTasks > 0 && tasks > j.maxTasks {
		return badJob(413, "job: graph has %d tasks, limit is %d", tasks, j.maxTasks)
	}
	return nil
}

// normalizeConstraints canonicalizes a job's placement constraints
// against the hierarchy's level names (outermost first): names
// lowercased, kind defaulted to "required", unknown levels and kinds
// rejected, entries sorted by (level depth, kind) and exact duplicates
// dropped. Two spellings of the same constraint set therefore hash to the
// same content key.
func normalizeConstraints(cs []Constraint, levels []string) ([]Constraint, error) {
	depth := func(c Constraint) int { return slices.Index(levels, c.Level) }
	out := make([]Constraint, 0, len(cs))
	for _, c := range cs {
		c.Level = strings.ToLower(strings.TrimSpace(c.Level))
		c.Kind = strings.ToLower(strings.TrimSpace(c.Kind))
		if c.Kind == "" {
			c.Kind = "required"
		}
		if c.Kind != "required" && c.Kind != "preferred" {
			return nil, badJob(400, "job: constraint kind %q: want \"required\" or \"preferred\"", c.Kind)
		}
		if depth(c) < 0 {
			return nil, badJob(400, "job: constraint level %q: hierarchy has levels %s",
				c.Level, strings.Join(levels, ", "))
		}
		out = append(out, c)
	}
	sort.SliceStable(out, func(a, b int) bool {
		la, lb := depth(out[a]), depth(out[b])
		if la != lb {
			return la < lb
		}
		return out[a].Kind < out[b].Kind
	})
	dedup := out[:0]
	for i, c := range out {
		if i > 0 && c == out[i-1] {
			continue
		}
		dedup = append(dedup, c)
	}
	return dedup, nil
}

// resolveConstraints decides each normalized constraint's feasibility
// against the job size and narrows mapTopo to the innermost feasible
// constrained level's rank-prefix subtree. A required constraint the job
// cannot fit rejects the job; a preferred one is recorded as unsatisfied
// and placement falls back outward. Purely size-driven, so the outcome
// is a function of the content key.
func (j *job) resolveConstraints(cs []Constraint) error {
	n := j.graph.NumVertices()
	j.cres = make([]ConstraintResult, len(cs))
	packLevel := -1
	for i, c := range cs {
		li := j.hier.LevelIndex(c.Level)
		inst := j.hier.InstanceSize(li)
		cr := ConstraintResult{Level: c.Level, Kind: c.Kind, Satisfied: true}
		if n > inst {
			if c.Kind == "required" {
				return badJob(400, "job: constraint: %d tasks cannot fit one %s (%d processors); drop the constraint or mark it preferred",
					n, c.Level, inst)
			}
			cr.Satisfied = false
			cr.Reason = fmt.Sprintf("%d tasks exceed one %s (%d processors); placement falls back outward", n, c.Level, inst)
		} else if li > packLevel {
			packLevel = li
		}
		j.cres[i] = cr
	}
	if packLevel >= 0 {
		sub, err := j.hier.Subtree(packLevel)
		if err != nil {
			return badJob(500, "job: constraint subtree: %v", err)
		}
		j.mapTopo = sub
	}
	return nil
}

// verifyConstraints re-checks every constraint the resolver deemed
// satisfiable against the placement the response actually carries: a
// level-li constraint holds iff every task landed in the rank prefix
// [0, InstanceSize(li)) that is instance 0 of that level. This converts
// "the planner intended to satisfy it" into "the mapping satisfies it".
func (j *job) verifyConstraints(m []int) []ConstraintResult {
	out := append([]ConstraintResult(nil), j.cres...)
	for i := range out {
		if !out[i].Satisfied {
			continue
		}
		li := j.hier.LevelIndex(out[i].Level)
		inst := j.hier.InstanceSize(li)
		for task, rank := range m {
			if rank >= inst {
				out[i].Satisfied = false
				out[i].Reason = fmt.Sprintf("task %d placed on processor %d, outside the first %s (%d processors)",
					task, rank, out[i].Level, inst)
				break
			}
		}
	}
	return out
}

// contentKey hashes everything the response body depends on. Two jobs
// with equal keys produce byte-identical bodies, so the key is safe to
// use for the result cache and in-flight coalescing.
func contentKey(spec *Job, inlineGraph []byte) string {
	h := sha256.New()
	hashf(h, "v3\x00%s\x00%s\x00%d\x00%d\x00%t\x00%t\x00",
		spec.Topology, spec.Strategy, spec.Seed, spec.AutoBudgetMS, spec.Refine, spec.Metrics)
	for _, c := range spec.Constraints {
		hashf(h, "constraint\x00%s\x00%s\x00", c.Level, c.Kind)
	}
	if spec.Graph.Pattern != "" {
		hashf(h, "pattern\x00%s\x00%g\x00%d\x00", spec.Graph.Pattern, spec.Graph.MsgBytes, spec.Graph.Seed)
	} else {
		hashf(h, "inline\x00%d\x00", len(inlineGraph))
		//lint:ignore errcheck hash.Hash.Write is documented to never return an error
		h.Write(inlineGraph)
	}
	if s := spec.Sim; s != nil {
		hashf(h, "sim\x00%d\x00%g\x00%g\x00%g\x00%d\x00%t\x00%d\x00%s\x00%d\x00%d\x00%t\x00",
			s.Iterations, s.ComputeTime, s.LinkBandwidth, s.LinkLatency,
			s.PacketSize, s.Adaptive, s.BufferPackets,
			s.Mode, s.FlitSize, s.FlitBuffer, s.CollectLatencies)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashf formats into a hash.
func hashf(h io.Writer, format string, args ...any) {
	//lint:ignore errcheck hash.Hash.Write is documented to never return an error
	fmt.Fprintf(h, format, args...)
}

// Compute runs the job with direct library calls and returns the result.
// Everything the server returns flows through here exactly once per
// distinct content key; the tests compare its output against independent
// library calls to pin the service to the library.
func (j *job) compute() (*JobResult, error) {
	if faultHook != nil {
		faultHook("compute", &j.spec)
	}
	res := &JobResult{
		Topology: j.topo.Name(),
		Graph:    j.graph.Name(),
		Tasks:    j.graph.NumVertices(),
	}
	var m []int
	if j.auto {
		var err error
		m, err = j.computeAuto(res)
		if err != nil {
			return nil, err
		}
	} else {
		res.Strategy = j.strat.Name()
		var err error
		m, err = j.runStrategy(j.strat, res)
		if err != nil {
			return nil, err
		}
	}
	res.Mapping = m
	res.HopBytes = core.HopBytes(j.graph, j.topo, m)
	if math.IsInf(res.HopBytes, 0) || math.IsNaN(res.HopBytes) {
		// JSON has no spelling for it: the edge weights overflow a float64.
		return nil, badJob(422, "job: hop-bytes is not finite (%g); lower graph.msg_bytes or the edge weights", res.HopBytes)
	}
	if total := j.graph.TotalComm(); total > 0 {
		res.HopsPerByte = res.HopBytes / total
	}
	if j.cres != nil {
		res.Constraints = j.verifyConstraints(m)
	}
	if j.spec.Metrics {
		rep, err := metrics.Evaluate(j.graph, j.topo, m)
		if err != nil {
			return nil, badJob(422, "job: metrics: %v", err)
		}
		res.Report = rep
	}
	if s := j.spec.Sim; s != nil {
		prog, err := trace.FromTaskGraph(j.graph, s.Iterations, s.ComputeTime)
		if err != nil {
			return nil, badJob(422, "job: sim: %v", err)
		}
		mode, err := netsim.ParseMode(s.Mode)
		if err != nil {
			return nil, badJob(400, "job: sim: %v", err)
		}
		cfg := s.config(mode, j.topo.(topology.Router))
		eng := netsim.GetEngine()
		rr, err := trace.ReplayOn(eng, prog, m, cfg)
		netsim.PutEngine(eng)
		if err != nil {
			return nil, badJob(422, "job: sim: %v", err)
		}
		res.Sim = &SimResult{CompletionTime: rr.CompletionTime, Stats: rr.Net}
	}
	return res, nil
}

// runStrategy maps the job's graph with one strategy, recording the
// pipeline's partition quality into res when res is non-nil.
func (j *job) runStrategy(strat core.Strategy, res *JobResult) ([]int, error) {
	if j.partitioned {
		// Two-phase pipeline: partition tasks into one group per
		// processor, then map the quotient graph with the job's strategy.
		// The partitioner's RNG is seeded from the job spec, so two jobs
		// whose content keys differ only in Seed genuinely partition
		// differently instead of silently sharing the zero seed.
		pr, err := core.MapTasks(j.graph, j.mapTopo, partition.Multilevel{Seed: j.spec.Seed}, strat)
		if err != nil {
			return nil, badJob(422, "job: %s: %v", strat.Name(), err)
		}
		if res != nil {
			res.EdgeCut = pr.EdgeCut
			res.Imbalance = pr.Imbalance
		}
		return pr.Placement, nil
	}
	if j.packed {
		// The job is smaller than its constrained packing region; only a
		// Placer can leave processors idle.
		placer, ok := strat.(core.Placer)
		if !ok {
			return nil, badJob(422, "job: %s cannot pack %d tasks onto %d processors; use strategy %s (or \"auto\")",
				strat.Name(), j.graph.NumVertices(), j.mapTopo.Nodes(), packingStrategies())
		}
		m, err := placer.Place(j.graph, j.mapTopo)
		if err != nil {
			return nil, badJob(422, "job: %s: %v", strat.Name(), err)
		}
		return m, nil
	}
	m, err := strat.Map(j.graph, j.mapTopo)
	if err != nil {
		return nil, badJob(422, "job: %s: %v", strat.Name(), err)
	}
	return m, nil
}

// packingStrategies quotes the names a packed job can be sent to instead:
// packing happens only inside a hierarchy, so the rows written for one.
func packingStrategies() string {
	var names []string
	for _, r := range cliutil.StrategyTable() {
		if r.NeedsHierarchy {
			names = append(names, strconv.Quote(r.Name))
		}
	}
	return strings.Join(names, ", ")
}

// encodeBuffers pools the scratch buffers result encoding marshals into,
// so the compute path's response encoding does not grow a fresh buffer
// per job.
var encodeBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeResult marshals res to the exact bytes json.Marshal would
// produce. The returned slice is freshly allocated at the final size
// (it outlives the pooled scratch buffer inside the result cache).
func encodeResult(res *JobResult) ([]byte, error) {
	buf := encodeBuffers.Get().(*bytes.Buffer)
	defer encodeBuffers.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(res); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	b = b[:len(b)-1] // drop the Encoder's trailing newline; body == json.Marshal(res)
	return append([]byte(nil), b...), nil
}
