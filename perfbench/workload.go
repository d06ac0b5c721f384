package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// workload is one named set of inputs.
type workload struct {
	// setup prepares everything the timed phase reuses; its wall time is
	// setup_s.
	setup func(env *runEnv) error
	// pass runs pass k of the seed's op list and returns its summed op
	// wall time.
	pass func(env *runEnv, k int) (time.Duration, error)
	// passSeconds is the nominal wall time of one pass, including the
	// output checks, on 2 vCPUs: a run makes --seconds / passSeconds
	// passes, at least one, so its work does not depend on how fast the
	// program runs.
	passSeconds float64
	// layers fills env.layer after a traced timed phase.
	layers func(env *runEnv) error
	// teardown, if set, stops what set-up started; it may run twice.
	teardown func(env *runEnv) error
}

var workloads = map[string]workload{
	"tune-sweep":    tuneSweep(),
	"sched-serve":   schedServe(),
	"live-exchange": liveExchange(),
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// maxFailures bounds the failure messages a run keeps for its report.
const maxFailures = 8

// runEnv is one run's state, shared by its set-up and passes.
type runEnv struct {
	opts    options
	scratch string  // removed when the run ends
	tr      *tracer // nil in an untraced run
	heap    *heapPeak

	passWalls []float64 // per pass, seconds
	latencies []float64 // per op, seconds
	attempted int
	failed    int
	failures  []string

	layer   map[string]float64 // per-layer metrics of a traced run
	samples map[string]int     // sample counts behind per-layer percentiles
	state   any                // the workload's own set-up state
}

// rng returns the input stream of pass k: the same seed gives the same
// inputs.
func (e *runEnv) rng(k int) *rand.Rand {
	return rand.New(rand.NewSource(e.opts.seed*1_000_003 + int64(k) + 1))
}

// done accounts one op: err is a failure of the op or of its output check.
func (e *runEnv) done(what string, err error) {
	e.attempted++
	if err != nil {
		e.failed++
		if len(e.failures) < maxFailures {
			e.failures = append(e.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}
