package main

import (
	"fmt"
	"time"

	"alltoallx/internal/bench"
	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/sched"
	"alltoallx/internal/sim"
)

// simOp is one simulated operation: a RunCluster whose body constructs the
// algorithm on every rank, barrier-aligns and runs one exchange, as
// bench.Measure does.
type simOp struct {
	Machine    string
	Nodes, PPN int
	Op         core.Op
	Label      string // candidate label, part of the reference key
	Algo       string
	Opts       core.Options
	Block      int
	Noise      int64 // simulator noise seed
}

// key identifies the op's simulated outcome in the reference.
func (o simOp) key() string {
	return fmt.Sprintf("%s|%dx%d|%s|%s|%d|%d", o.Machine, o.Nodes, o.PPN, o.Op.Norm(), o.Label, o.Block, o.Noise)
}

// simOutcome is what one simulated op produced and cost.
type simOutcome struct {
	Stats sim.Stats
	Wall  time.Duration
	// Exchange runs from the last rank passing the barrier after
	// construction until the last rank's exchange returned.
	Exchange time.Duration
	// Rounds is a schedule-backed algorithm's round count (0 otherwise).
	Rounds int
}

// runSimOp runs op under the tracer (nil: untraced), recording spans under
// parent.
func runSimOp(tr *tracer, parent int64, op simOp) (simOutcome, error) {
	m, err := netmodel.ByName(op.Machine)
	if err != nil {
		return simOutcome{}, err
	}
	p := op.Nodes * op.PPN
	var out simOutcome
	passed := make([]time.Time, p)
	finished := make([]time.Time, p)
	rounds := make([]int, p)

	var vcounts [][]int
	vMax := 0
	v := op.Op.Norm() == core.OpAlltoallv
	if v {
		vcounts = bench.ZipfCounts(p, op.Block)
		vMax = bench.MaxTotal(vcounts)
	}

	opSpan := tr.begin("sim.RunCluster", parent)
	body := func(c comm.Comm) error {
		r := c.Rank()
		var exchange func() error
		if v {
			sp := tr.begin("core.NewV", opSpan.ID())
			a, err := core.NewV(op.Algo, c, vMax, op.Opts)
			sp.end()
			if err != nil {
				return err
			}
			sc := vcounts[r]
			rc := make([]int, p)
			for s := range p {
				rc[s] = vcounts[s][r]
			}
			sd, st := core.DisplsFromCounts(sc)
			rd, rt := core.DisplsFromCounts(rc)
			send, recv := comm.Virtual(st), comm.Virtual(rt)
			exchange = func() error {
				sp := tr.begin("core.Alltoallv", opSpan.ID())
				defer sp.end()
				return a.Alltoallv(send, sc, sd, recv, rc, rd)
			}
		} else {
			sp := tr.begin("core.New", opSpan.ID())
			a, err := core.New(op.Algo, c, op.Block, op.Opts)
			sp.end()
			if err != nil {
				return err
			}
			rounds[r] = schedRounds(a)
			send, recv := comm.Virtual(p*op.Block), comm.Virtual(p*op.Block)
			exchange = func() error {
				sp := tr.begin("core.Alltoall", opSpan.ID())
				defer sp.end()
				return a.Alltoall(send, recv, op.Block)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		passed[r] = time.Now()
		if err := exchange(); err != nil {
			return err
		}
		finished[r] = time.Now()
		return nil
	}
	start := time.Now()
	out.Stats, err = sim.RunCluster(sim.ClusterConfig{Model: m, Nodes: op.Nodes, PPN: op.PPN, Seed: op.Noise}, body)
	out.Wall = time.Since(start)
	opSpan.end()
	if err != nil {
		return out, err
	}
	lastPassed, lastFinished := latest(passed), latest(finished)
	out.Exchange = lastFinished.Sub(lastPassed)
	out.Rounds = rounds[0]
	tr.record("core.construct", opSpan.ID(), start, lastPassed)
	tr.record("core.exchange", opSpan.ID(), lastPassed, lastFinished)
	return out, nil
}

func latest(ts []time.Time) time.Time {
	var m time.Time
	for _, t := range ts {
		if t.After(m) {
			m = t
		}
	}
	return m
}

// simLayers fills the sim and core metrics from a traced run's spans;
// schedExec carries the exchange time and rank-rounds of sched:* ops.
func simLayers(env *runEnv, schedExec *execTally) {
	tr := env.tr
	rc := tr.totals("sim.RunCluster")
	env.layer["sim.ns_per_event"] = ratio(float64(rc.Busy.Nanoseconds()), env.layer["sim.events"])
	env.layer["sim.allocs_per_msg"] = ratio(float64(rc.Allocs), env.layer["sim.msgs"])
	env.layer["core.construct_s"] = tr.totals("core.construct").Busy.Seconds()
	env.layer["core.exchange_s"] = tr.totals("core.exchange").Busy.Seconds()
	env.layer["sched.exec.ns_per_round"] = ratio(float64(schedExec.busy.Nanoseconds()), float64(schedExec.rankRounds))
	cs := core.SchedCacheStats()
	env.layer["core.schedcache.hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	env.layer["core.schedcache.evictions"] = float64(cs.Evictions)
}

// execTally accumulates the exchange phase of schedule-backed ops.
type execTally struct {
	busy       time.Duration
	rankRounds int64
}

func (t *execTally) add(o simOutcome, ranks int) {
	if o.Rounds > 0 {
		t.busy += o.Exchange
		t.rankRounds += int64(ranks) * int64(o.Rounds)
	}
}

// countSim adds an op's simulator counters to the layer totals.
func countSim(env *runEnv, st sim.Stats) {
	env.layer["sim.events"] += float64(st.Events)
	env.layer["sim.msgs"] += float64(st.Messages)
}

// schedRounds returns a schedule-backed algorithm's round count, 0 for
// any other algorithm.
func schedRounds(a core.Alltoaller) int {
	sa, ok := a.(interface {
		Schedule() *sched.Schedule
		Program() *sched.RankProgram
	})
	switch {
	case !ok:
		return 0
	case sa.Schedule() != nil:
		return len(sa.Schedule().Rounds)
	case sa.Program() != nil:
		return len(sa.Program().Rounds)
	}
	return 0
}
