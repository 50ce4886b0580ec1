package charm

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/netsim"
	"repro/internal/trace"
)

// RunSimulated executes iterations of the app through the discrete-event
// network simulator instead of the BSP contention emulator: every message
// is individually routed, queued, and delivered, and iteration
// dependencies are honored per chare. It is far slower than Run but gives
// event-level latency statistics; the machine's bandwidth and latency
// parameters carry over. Instrumentation accumulates exactly as in Run.
func (r *Runtime) RunSimulated(iterations int) (trace.Result, error) {
	g, err := r.commGraph()
	if err != nil {
		return trace.Result{}, err
	}
	// Per-chare compute seconds: the app's work in units × unit time,
	// carried per task so heterogeneous loads replay faithfully.
	n := r.app.NumChares()
	times := make([]float64, n)
	for v := 0; v < n; v++ {
		times[v] = r.app.Work(v) * r.workUnitTime
	}
	prog, err := trace.FromTaskGraph(g, iterations, 0)
	if err != nil {
		return trace.Result{}, err
	}
	prog.ComputeTimes = times
	res, err := trace.Replay(prog, r.placement, netsim.Config{
		Topology:      r.machine.Topo,
		LinkBandwidth: r.machine.LinkBandwidth,
		LinkLatency:   r.machine.HopLatency,
		PacketSize:    4096,
	})
	if err != nil {
		return trace.Result{}, err
	}
	r.instrument(iterations)
	return res, nil
}

// checkpoint is the serialized runtime state (the Charm++ double-disk
// checkpoint analog: placement plus accumulated measurement).
type checkpoint struct {
	Placement  []int
	Step       int
	InstrLoad  []float64
	InstrComm  map[[2]int32]float64
	InstrIters int
	Migrations int
	MigBytes   int
}

// Checkpoint serializes the runtime's restartable state: chare placement,
// LB step counter, and the open instrumentation window. App state is the
// application's own to checkpoint (for Stateful apps, via PackChare).
func (r *Runtime) Checkpoint(w io.Writer) error {
	cp := checkpoint{
		Placement:  r.placement,
		Step:       r.step,
		InstrLoad:  r.instrLoad,
		InstrComm:  r.instrComm,
		InstrIters: r.instrIters,
		Migrations: r.TotalMigrations,
		MigBytes:   r.TotalMigratedBytes,
	}
	return gob.NewEncoder(w).Encode(&cp)
}

// Restore loads a checkpoint written by Checkpoint into a runtime built
// with the same app and machine shape.
func (r *Runtime) Restore(rd io.Reader) error {
	var cp checkpoint
	if err := gob.NewDecoder(rd).Decode(&cp); err != nil {
		return fmt.Errorf("charm: restore: %w", err)
	}
	n := r.app.NumChares()
	if len(cp.Placement) != n || len(cp.InstrLoad) != n {
		return fmt.Errorf("charm: checkpoint shape mismatch: %d chares, runtime has %d", len(cp.Placement), n)
	}
	procs := r.machine.Topo.Nodes()
	for i, p := range cp.Placement {
		if p < 0 || p >= procs {
			return fmt.Errorf("charm: checkpoint places chare %d on processor %d, out of [0,%d)", i, p, procs)
		}
	}
	r.placement = cp.Placement
	r.step = cp.Step
	r.instrLoad = cp.InstrLoad
	r.instrComm = cp.InstrComm
	if r.instrComm == nil {
		r.instrComm = make(map[[2]int32]float64)
	}
	r.instrIters = cp.InstrIters
	r.TotalMigrations = cp.Migrations
	r.TotalMigratedBytes = cp.MigBytes
	return nil
}
