// Package charm is a miniature Charm-style runtime: an application is
// decomposed into many migratable chares (virtualization), the runtime
// instruments their computation load and pairwise communication during
// execution, and a pluggable load-balancing step — partition, then
// topology-aware mapping — migrates chares between processors. Execution
// timing comes from the machine emulator, so runs over thousands of
// emulated processors finish instantly.
//
// The package mirrors the pieces of the Charm++ framework the paper
// relies on: measurement-based load balancing, the LB database (package
// lbdb), strategy simulation mode (§5.1), and PUP-style chare state
// migration.
package charm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/emulator"
	"repro/internal/lbdb"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Message is a per-iteration send from one chare to another.
type Message struct {
	To    int
	Bytes float64
}

// App is a message-driven iterative application: per iteration each chare
// performs Work units of computation and sends Messages. Both must be
// deterministic functions of the chare id (persistent communication
// pattern — the paper's process-based model).
type App interface {
	NumChares() int
	// Work returns the chare's computation in work units per iteration.
	Work(chare int) float64
	// Messages returns the chare's per-iteration sends. The returned
	// slice is not retained.
	Messages(chare int) []Message
}

// Stateful is optionally implemented by apps whose chares carry state.
// The runtime packs and unpacks chare state around migration, emulating
// the Charm++ PUP framework.
type Stateful interface {
	App
	// PackChare serializes the chare's state for migration.
	PackChare(chare int) (any, error)
	// UnpackChare restores the chare's state after migration.
	UnpackChare(chare int, state any) error
}

// GraphApp adapts a task graph into an App: vertex weights are work units
// and each edge generates one message per direction per iteration.
type GraphApp struct {
	G *taskgraph.Graph
}

// NumChares implements App.
func (a GraphApp) NumChares() int { return a.G.NumVertices() }

// Work implements App.
func (a GraphApp) Work(chare int) float64 { return a.G.VertexWeight(chare) }

// Messages implements App.
func (a GraphApp) Messages(chare int) []Message {
	adj, w := a.G.Neighbors(chare)
	msgs := make([]Message, len(adj))
	for i, u := range adj {
		msgs[i] = Message{To: int(u), Bytes: w[i]}
	}
	return msgs
}

// Runtime hosts an App on an emulated machine and drives instrumented
// execution and load-balancing steps.
type Runtime struct {
	app     App
	machine *emulator.Machine
	// WorkUnitTime converts work units to seconds (default 1 µs).
	workUnitTime float64

	placement []int
	step      int
	// Instrumentation accumulated since the last Balance.
	instrLoad  []float64
	instrComm  map[[2]int32]float64
	instrIters int

	// Migration statistics.
	TotalMigrations    int
	TotalMigratedBytes int
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithWorkUnitTime sets the seconds charged per work unit.
func WithWorkUnitTime(s float64) Option {
	return func(r *Runtime) { r.workUnitTime = s }
}

// WithInitialPlacement sets the starting chare → processor assignment
// (default: block distribution).
func WithInitialPlacement(p []int) Option {
	return func(r *Runtime) { r.placement = append([]int(nil), p...) }
}

// NewRuntime creates a runtime for app on machine.
func NewRuntime(app App, machine *emulator.Machine, opts ...Option) (*Runtime, error) {
	if app == nil || machine == nil {
		return nil, fmt.Errorf("charm: app and machine are required")
	}
	n := app.NumChares()
	if n < 1 {
		return nil, fmt.Errorf("charm: app has no chares")
	}
	r := &Runtime{
		app:          app,
		machine:      machine,
		workUnitTime: 1e-6,
		instrLoad:    make([]float64, n),
		instrComm:    make(map[[2]int32]float64),
	}
	for _, o := range opts {
		o(r)
	}
	procs := machine.Topo.Nodes()
	if r.placement == nil {
		// Block distribution, the Charm++ default initial placement.
		r.placement = make([]int, n)
		for i := range r.placement {
			r.placement[i] = i * procs / n
		}
	}
	if len(r.placement) != n {
		return nil, fmt.Errorf("charm: placement has %d entries for %d chares", len(r.placement), n)
	}
	for i, p := range r.placement {
		if p < 0 || p >= procs {
			return nil, fmt.Errorf("charm: chare %d on processor %d, out of [0,%d)", i, p, procs)
		}
	}
	return r, nil
}

// Placement returns a copy of the current chare → processor assignment.
func (r *Runtime) Placement() []int {
	return append([]int(nil), r.placement...)
}

// Step returns the number of completed load-balancing steps.
func (r *Runtime) Step() int { return r.step }

// Run executes iterations under the current placement on the emulated
// machine, accumulating instrumentation, and returns the emulated timing.
func (r *Runtime) Run(iterations int) (emulator.Result, error) {
	g, err := r.commGraph()
	if err != nil {
		return emulator.Result{}, err
	}
	res, err := r.machine.RunIterative(g, r.placement, iterations, r.workUnitTime)
	if err != nil {
		return emulator.Result{}, err
	}
	r.instrument(iterations)
	return res, nil
}

// instrument adds the measurements of a window of the given iterations:
// each chare's load and each pair's bytes scale with the count. Run and
// RunSimulated both end with it.
func (r *Runtime) instrument(iterations int) {
	n := r.app.NumChares()
	for v := 0; v < n; v++ {
		r.instrLoad[v] += float64(r.app.Work(v) * r.workUnitTime * float64(iterations))
		for _, m := range r.app.Messages(v) {
			r.instrComm[commKey(v, m.To)] += float64(m.Bytes * float64(iterations))
		}
	}
	r.instrIters += iterations
}

func commKey(a, b int) [2]int32 {
	if a < b {
		return [2]int32{int32(a), int32(b)}
	}
	return [2]int32{int32(b), int32(a)}
}

// commGraph materializes the app's communication pattern as a task graph
// (work units as vertex weights, per-iteration bytes as edge weights).
func (r *Runtime) commGraph() (*taskgraph.Graph, error) {
	n := r.app.NumChares()
	b := taskgraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, r.app.Work(v))
		for _, m := range r.app.Messages(v) {
			if m.To < 0 || m.To >= n || m.To == v {
				return nil, fmt.Errorf("charm: chare %d sends to invalid chare %d", v, m.To)
			}
			if m.Bytes < 0 {
				return nil, fmt.Errorf("charm: chare %d sends negative bytes", v)
			}
			b.AddEdge(v, m.To, m.Bytes)
		}
	}
	return b.Build("charm-app"), nil
}

// Database snapshots the accumulated instrumentation as an LB database
// (the +LBDump content). It fails if Run has not been called since the
// last Balance.
func (r *Runtime) Database() (*lbdb.Database, error) {
	if r.instrIters == 0 {
		return nil, fmt.Errorf("charm: no instrumentation accumulated; call Run first")
	}
	db := &lbdb.Database{
		Step:     r.step,
		NumProcs: r.machine.Topo.Nodes(),
		Chares:   make([]lbdb.ChareStats, r.app.NumChares()),
	}
	for i := range db.Chares {
		db.Chares[i] = lbdb.ChareStats{Load: r.instrLoad[i], Proc: r.placement[i]}
	}
	for k, bytes := range r.instrComm {
		db.Comms = append(db.Comms, lbdb.Comm{From: k[0], To: k[1], Bytes: bytes})
	}
	sortComms(db.Comms)
	return db, nil
}

// Balance performs a load-balancing step using the measured database: the
// chare graph is partitioned into one group per processor, the quotient
// graph is mapped onto the topology by strat, and chares migrate to their
// new processors (packing and unpacking state for Stateful apps). It
// returns the number of migrated chares.
func (r *Runtime) Balance(part partition.Partitioner, strat core.Strategy) (int, error) {
	db, err := r.Database()
	if err != nil {
		return 0, err
	}
	newPlacement, err := MapDatabase(db, r.machine.Topo, part, strat)
	if err != nil {
		return 0, err
	}
	migrated := 0
	for v, p := range newPlacement {
		if p == r.placement[v] {
			continue
		}
		if s, ok := r.app.(Stateful); ok {
			n, err := migrateChare(s, v)
			if err != nil {
				return migrated, fmt.Errorf("charm: migrating chare %d: %w", v, err)
			}
			r.TotalMigratedBytes += n
		}
		r.placement[v] = p
		migrated++
	}
	r.TotalMigrations += migrated
	r.step++
	// Reset the instrumentation window.
	for i := range r.instrLoad {
		r.instrLoad[i] = 0
	}
	r.instrComm = make(map[[2]int32]float64)
	r.instrIters = 0
	return migrated, nil
}

// migrateChare round-trips the chare's state through gob, as the PUP
// framework serializes object memory for migration, and returns the
// serialized size.
func migrateChare(s Stateful, chare int) (int, error) {
	state, err := s.PackChare(chare)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&state); err != nil {
		return 0, err
	}
	size := buf.Len()
	var restored any
	if err := gob.NewDecoder(&buf).Decode(&restored); err != nil {
		return 0, err
	}
	if err := s.UnpackChare(chare, restored); err != nil {
		return 0, err
	}
	return size, nil
}

func sortComms(comms []lbdb.Comm) {
	sort.Slice(comms, func(i, j int) bool {
		if comms[i].From != comms[j].From {
			return comms[i].From < comms[j].From
		}
		return comms[i].To < comms[j].To
	})
}

// MapDatabase runs the two-phase mapping pipeline of §4 on a dumped LB
// database: partition the chare graph into one group per processor,
// build the quotient graph, map it with strat, and return the resulting
// chare → processor placement. This is the core of simulation mode
// (+LBSim): strategies are evaluated on recorded load scenarios without
// re-running the application.
func MapDatabase(db *lbdb.Database, topo topology.Topology, part partition.Partitioner, strat core.Strategy) ([]int, error) {
	rep, err := SimulateStep(db, topo, part, strat)
	if err != nil {
		return nil, err
	}
	return rep.Placement, nil
}
