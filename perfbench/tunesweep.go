package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"alltoallx/internal/autotune"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
)

const (
	tuneNodes = 8
	tunePPN   = 16
)

// tuneNoise is the pool of simulator noise seeds an op draws from.
var tuneNoise = []int64{1, 2}

// tuneCandidates is autotune's pool for op at 8 x 16, less the
// schedule-backed alltoallv: it compiles and fully verifies a
// byte-granular schedule on every rank per count matrix, which takes
// about 100 s per op at a 1 KiB mean block, longer than a whole run.
func tuneCandidates(op core.Op) []autotune.Candidate {
	var out []autotune.Candidate
	for _, c := range autotune.DefaultCandidates(op, tuneNodes, tunePPN) {
		if op.Norm() == core.OpAlltoallv && strings.HasPrefix(c.Algo, core.SchedPrefix) {
			continue
		}
		out = append(out, c)
	}
	return out
}

func tuneSizes() []int { return autotune.SizeGrid(4, 16384) }

func tuneOp(machine string, op core.Op, c autotune.Candidate, block int, noise int64) simOp {
	return simOp{Machine: machine, Nodes: tuneNodes, PPN: tunePPN, Op: op, Label: c.Label(),
		Algo: c.Algo, Opts: c.Opts, Block: block, Noise: noise}
}

// tuneUniverse is every op a tune-sweep pass can draw.
func tuneUniverse() []simOp {
	var ops []simOp
	for _, m := range netmodel.Names() {
		for _, op := range []core.Op{core.OpAlltoall, core.OpAlltoallv} {
			for _, c := range tuneCandidates(op) {
				for _, b := range tuneSizes() {
					for _, n := range tuneNoise {
						ops = append(ops, tuneOp(m, op, c, b, n))
					}
				}
			}
		}
	}
	return ops
}

type tuneState struct {
	ref  refTable
	exec execTally
}

func tuneSweep() workload {
	return workload{
		passSeconds: 1.5,
		setup: func(env *runEnv) error {
			ref, err := loadRef(refDir, "tune-sweep")
			if err != nil {
				return err
			}
			st := &tuneState{ref: ref}
			env.state = st
			// Warm-up: one op of every candidate at the smallest size, which
			// fills the whole-world schedule cache the sweep then hits and
			// runs each algorithm's code once before timing.
			sp := env.tr.begin("setup", 0)
			defer sp.end()
			for _, op := range []core.Op{core.OpAlltoall, core.OpAlltoallv} {
				for _, c := range tuneCandidates(op) {
					o := tuneOp(netmodel.Names()[0], op, c, tuneSizes()[0], tuneNoise[0])
					out, err := runSimOp(env.tr, sp.ID(), o)
					if err != nil {
						return err
					}
					if err := st.ref.check(o.key(), out.Stats); err != nil {
						return err
					}
				}
			}
			return nil
		},
		pass: func(env *runEnv, k int) (time.Duration, error) {
			st := env.state.(*tuneState)
			ops := tunePassOps(env, k)
			sp := env.tr.begin("pass", 0)
			defer sp.end()
			var wall time.Duration
			for _, op := range ops {
				wall += st.runOp(env, sp.ID(), op)
			}
			return wall, nil
		},
		layers: func(env *runEnv) error {
			st := env.state.(*tuneState)
			simLayers(env, &st.exec)
			var worlds []schedWorld
			for _, c := range tuneCandidates(core.OpAlltoall) {
				if g, ok := strings.CutPrefix(c.Algo, core.SchedPrefix); ok {
					worlds = append(worlds, schedWorld{gen: g, nodes: tuneNodes, ppn: tunePPN})
				}
			}
			if len(worlds) == 0 {
				return fmt.Errorf("no schedule-backed candidates at %dx%d", tuneNodes, tunePPN)
			}
			return directSched(env, worlds, false)
		},
	}
}

// runOp runs and checks one op, accounts it and returns its wall time.
func (st *tuneState) runOp(env *runEnv, parent int64, op simOp) time.Duration {
	o, err := runSimOp(env.tr, parent, op)
	env.latencies = append(env.latencies, o.Wall.Seconds())
	if err == nil {
		err = st.ref.check(op.key(), o.Stats)
		countSim(env, o.Stats)
		st.exec.add(o, tuneNodes*tunePPN)
	}
	env.done(op.key(), err)
	return o.Wall
}

// tunePassOps returns the ops of pass k in the order they run. Each
// (machine, op, candidate) walks its own seed-chosen permutation of the
// size grid, one size per pass, so a run spreads each candidate over the
// grid evenly; slot numbers the (op, candidate) pairs.
func tunePassOps(env *runEnv, k int) []simOp {
	rng := env.rng(k)
	sizes := tuneSizes()
	machines := netmodel.Names()
	draw := func(mi, slot int, op core.Op, c autotune.Candidate) simOp {
		perm := rand.New(rand.NewSource(env.opts.seed*7919 + int64(mi*1000+slot))).Perm(len(sizes))
		return tuneOp(machines[mi], op, c, sizes[perm[k%len(sizes)]], tuneNoise[rng.Intn(len(tuneNoise))])
	}
	var ops []simOp
	for mi := range machines {
		for ci, c := range tuneCandidates(core.OpAlltoall) {
			ops = append(ops, draw(mi, ci, core.OpAlltoall, c))
		}
		for ci, c := range tuneCandidates(core.OpAlltoallv) {
			ops = append(ops, draw(mi, 100+ci, core.OpAlltoallv, c))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
