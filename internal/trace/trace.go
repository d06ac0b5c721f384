// Package trace records per-phase timings inside collective algorithms —
// the instrumentation behind the paper's Figures 13-16, which break each
// algorithm into its internal gathers, scatters and intra-/inter-node
// all-to-all exchanges. Each rank records into its own Recorder using the
// communicator's clock (wall time on the live runtime, virtual time in the
// simulator); the bench harness merges recorders across ranks by taking the
// maximum per phase, since a collective phase ends when its slowest rank
// finishes.
package trace

import "sort"

// Phase names one internal stage of an algorithm.
type Phase string

// The phases the paper's breakdown figures report.
const (
	PhaseGather  Phase = "gather"  // intra-node gather to leaders
	PhaseScatter Phase = "scatter" // intra-node scatter from leaders
	PhaseInter   Phase = "inter"   // inter-node (or inter-region) all-to-all
	PhaseIntra   Phase = "intra"   // intra-node (or intra-region) all-to-all
	PhaseRepack  Phase = "repack"  // data repacking between stages
	PhaseReduce  Phase = "reduce"  // operator application in reduction schedules
	PhaseTotal   Phase = "total"   // whole collective
)

// declared lists the phases above in slot order: a Recorder keeps them in
// a fixed array, so recording one costs no map assign.
var declared = [...]Phase{PhaseGather, PhaseScatter, PhaseInter, PhaseIntra, PhaseRepack, PhaseReduce, PhaseTotal}

// slot returns p's index in declared, or -1 for an undeclared phase. A
// switch, not a scan of declared: it compiles to length-and-value
// compares and is several times faster on the executor's per-step Add.
func slot(p Phase) int {
	switch p {
	case PhaseGather:
		return 0
	case PhaseScatter:
		return 1
	case PhaseInter:
		return 2
	case PhaseIntra:
		return 3
	case PhaseRepack:
		return 4
	case PhaseReduce:
		return 5
	case PhaseTotal:
		return 6
	}
	return -1
}

// Recorder accumulates phase durations for one rank. A nil Recorder is
// valid and records nothing, so instrumentation can be compiled in
// unconditionally.
type Recorder struct {
	clock func() float64
	fixed [len(declared)]float64 // declared phases, by slot
	seen  [len(declared)]bool    // slot recorded since Reset
	other map[Phase]float64      // undeclared phases; nil until one is recorded
}

// NewRecorder returns a recorder reading the given clock (seconds).
func NewRecorder(clock func() float64) *Recorder {
	return &Recorder{clock: clock}
}

// Reset clears all recorded phases (called at the start of each collective
// so Phases reflects the last call).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.fixed = [len(declared)]float64{}
	r.seen = [len(declared)]bool{}
	clear(r.other)
}

// Time starts timing a phase and returns the function that stops it,
// accumulating into the phase's total:
//
//	defer rec.Time(trace.PhaseGather)()
func (r *Recorder) Time(p Phase) func() {
	if r == nil {
		return func() {}
	}
	t0 := r.clock()
	return func() { r.Add(p, r.clock()-t0) }
}

// Add accumulates d seconds into a phase directly.
func (r *Recorder) Add(p Phase, d float64) {
	if r == nil {
		return
	}
	if i := slot(p); i >= 0 {
		r.fixed[i] += d
		r.seen[i] = true
		return
	}
	if r.other == nil {
		r.other = make(map[Phase]float64)
	}
	r.other[p] += d
}

// Get returns the accumulated seconds for a phase (0 if absent or nil).
func (r *Recorder) Get(p Phase) float64 {
	if r == nil {
		return 0
	}
	if i := slot(p); i >= 0 {
		return r.fixed[i]
	}
	return r.other[p]
}

// Snapshot returns a copy of the phases recorded since the last Reset.
func (r *Recorder) Snapshot() map[Phase]float64 {
	if r == nil {
		return nil
	}
	out := make(map[Phase]float64, len(declared)+len(r.other))
	for i, p := range declared {
		if r.seen[i] {
			out[p] = r.fixed[i]
		}
	}
	for k, v := range r.other {
		out[k] = v
	}
	return out
}

// MaxMerge combines per-rank snapshots by taking the per-phase maximum: a
// collective phase is as slow as its slowest rank.
func MaxMerge(snaps []map[Phase]float64) map[Phase]float64 {
	out := make(map[Phase]float64)
	for _, s := range snaps {
		for k, v := range s {
			if v > out[k] {
				out[k] = v
			}
		}
	}
	return out
}

// SortedPhases returns the phases of a merged snapshot in stable name
// order, for deterministic report formatting.
func SortedPhases(m map[Phase]float64) []Phase {
	out := make([]Phase, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
