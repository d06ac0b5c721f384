package main

import (
	"fmt"
	"strings"
	"time"

	"alltoallx/internal/bench"
	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/runtime"
	"alltoallx/internal/topo"
)

const (
	liveNodes = 2
	livePPN   = 8
	liveRanks = liveNodes * livePPN
)

// liveAlgos are the exchanges of a live pass; v selects Alltoallv.
var liveAlgos = []struct {
	name string
	v    bool
}{
	{"pairwise", false}, {"bruck", false}, {"node-aware", false}, {"locality-aware", false},
	{"multileader-node-aware", false}, {"sched:pairwise", false},
	{"node-aware", true}, {"sched:pairwise", true},
}

// liveTiers are the block sizes a pass covers; each op adds up to 1/32 of
// its tier, in multiples of 8 bytes.
var liveTiers = []int{64, 256, 1024, 4096, 16384, 65536}

const liveMaxBlock = 65536 + 65536/32

// liveVSchedMaxTier caps the schedule-backed alltoallv's tiers: it
// compiles and fully verifies a byte-granular schedule on every rank for
// each new count matrix, so its cost grows with the bytes exchanged
// (seconds per op at 64 KiB).
const liveVSchedMaxTier = 256

// liveCmd is one op, sent to every rank.
type liveCmd struct {
	algo  int
	block int
	salt  byte
	count [][]int // Alltoallv counts (nil for Alltoall)
}

// liveReport is one rank's account of an op.
type liveReport struct {
	rank   int
	t0, t1 time.Time
	err    error
	counts commCounts // inside the timed region
	rounds int
}

type liveState struct {
	cmds    []chan liveCmd
	stopped bool
	reports chan liveReport
	runErr  chan error
	vMax    int
	counts  []commCounts // per rank, traced runs only
	// corrupt, when set, alters a rank's receive buffer before it is
	// checked (tests prove a corrupted byte fails the op).
	corrupt func(rank int, recv []byte)

	liveTally
}

// liveTally accumulates the timed ops of a run.
type liveTally struct {
	ops                 int
	opBusy, rankBusy    time.Duration
	wait                time.Duration
	msgs, bytes, memcpy int64
	allocs              uint64
	exec                execTally
}

// liveTierCap is the largest tier algorithm ai runs at.
func liveTierCap(ai int) int {
	if a := liveAlgos[ai]; a.v && strings.HasPrefix(a.name, core.SchedPrefix) {
		return liveVSchedMaxTier
	}
	return liveTiers[len(liveTiers)-1]
}

// livePattern is the byte rank src sends rank dst at offset i of their
// block.
func livePattern(src, dst, i int, salt byte) byte {
	return byte(src*7+dst*13+i) ^ salt
}

func liveExchange() workload {
	return workload{
		passSeconds: 0.67,
		setup: func(env *runEnv) error {
			mp, err := topo.NewMapping(topo.SapphireRapids(), liveNodes, livePPN)
			if err != nil {
				return err
			}
			st := &liveState{
				reports: make(chan liveReport, liveRanks),
				runErr:  make(chan error, 1),
				vMax:    bench.MaxTotal(bench.ZipfCounts(liveRanks, liveMaxBlock)),
			}
			if env.tr != nil {
				st.counts = make([]commCounts, liveRanks)
			}
			for range liveRanks {
				st.cmds = append(st.cmds, make(chan liveCmd, 1))
			}
			env.state = st
			sp := env.tr.begin("runtime.Run", 0)
			start := time.Now()
			ready := make(chan error, liveRanks)
			go func() {
				st.runErr <- runtime.Run(runtime.Config{Mapping: mp}, func(c comm.Comm) error {
					return st.rank(env, sp.ID(), c, ready)
				})
				sp.end()
			}()
			var firstErr error
			for range liveRanks {
				if err := <-ready; err != nil && firstErr == nil {
					firstErr = err
				}
			}
			env.tr.record("core.construct", sp.ID(), start, time.Now())
			if firstErr != nil {
				st.stop()
				return firstErr
			}
			// Warm-up: one exchange per algorithm at its largest block, so
			// lazily sized staging exists before timing starts.
			for ai := range liveAlgos {
				if _, err := st.op(env, liveCmd{algo: ai, block: liveTierCap(ai)}); err != nil {
					st.stop()
					return fmt.Errorf("warm-up %s: %w", liveAlgos[ai].name, err)
				}
			}
			st.liveTally = liveTally{}
			return nil
		},
		pass: func(env *runEnv, k int) (time.Duration, error) {
			st := env.state.(*liveState)
			rng := env.rng(k)
			var cmds []liveCmd
			for ai := range liveAlgos {
				for _, tier := range liveTiers {
					if tier > liveTierCap(ai) {
						continue
					}
					cmds = append(cmds, liveCmd{algo: ai, block: tier + 8*rng.Intn(tier/256+1), salt: byte(rng.Intn(256))})
				}
			}
			rng.Shuffle(len(cmds), func(i, j int) { cmds[i], cmds[j] = cmds[j], cmds[i] })
			var wall time.Duration
			for _, cmd := range cmds {
				d, err := st.op(env, cmd)
				wall += d
				env.latencies = append(env.latencies, d.Seconds())
				a := liveAlgos[cmd.algo]
				env.done(fmt.Sprintf("%s v=%v block=%d", a.name, a.v, cmd.block), err)
			}
			return wall, nil
		},
		layers: func(env *runEnv) error {
			st := env.state.(*liveState)
			ops := float64(st.ops)
			env.layer["runtime.msgs_per_op"] = ratio(float64(st.msgs), ops)
			env.layer["runtime.bytes_per_op"] = ratio(float64(st.bytes), ops)
			env.layer["runtime.memcpy_bytes_per_op"] = ratio(float64(st.memcpy), ops)
			env.layer["runtime.wait_share"] = ratio(float64(st.wait), float64(st.rankBusy))
			env.layer["runtime.allocs_per_op"] = ratio(float64(st.allocs), ops)
			env.layer["core.construct_s"] = env.tr.totals("core.construct").Busy.Seconds()
			env.layer["core.exchange_s"] = st.opBusy.Seconds()
			env.layer["sched.exec.ns_per_round"] = ratio(float64(st.exec.busy.Nanoseconds()), float64(st.exec.rankRounds))
			cs := core.SchedCacheStats()
			env.layer["core.schedcache.hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
			env.layer["core.schedcache.evictions"] = float64(cs.Evictions)
			if err := st.stop(); err != nil {
				return err
			}
			return directSched(env, []schedWorld{{gen: "pairwise", nodes: liveNodes, ppn: livePPN}}, false)
		},
		teardown: func(env *runEnv) error {
			if st, ok := env.state.(*liveState); ok {
				return st.stop()
			}
			return nil
		},
	}
}

// stop ends the rank goroutines and waits for runtime.Run to return; it
// is safe to call twice.
func (st *liveState) stop() error {
	if st.stopped {
		return nil
	}
	st.stopped = true
	for _, c := range st.cmds {
		close(c)
	}
	return <-st.runErr
}

// op issues one exchange to every rank and waits for all of them. Its
// time runs from the first rank leaving the aligning barrier to the last
// rank's exchange returning.
func (st *liveState) op(env *runEnv, cmd liveCmd) (time.Duration, error) {
	if liveAlgos[cmd.algo].v {
		cmd.count = bench.ZipfCounts(liveRanks, cmd.block)
	}
	a0 := uint64(0)
	if env.tr != nil {
		a0 = heapAllocs()
	}
	for _, c := range st.cmds {
		c <- cmd
	}
	var first, last time.Time
	var err error
	var rounds int
	for range liveRanks {
		r := <-st.reports
		if first.IsZero() || r.t0.Before(first) {
			first = r.t0
		}
		if r.t1.After(last) {
			last = r.t1
		}
		if r.err != nil && err == nil {
			err = fmt.Errorf("rank %d: %w", r.rank, r.err)
		}
		st.rankBusy += r.t1.Sub(r.t0)
		st.wait += r.counts.Wait
		st.msgs += r.counts.Msgs
		st.bytes += r.counts.Bytes
		st.memcpy += r.counts.MemcpyBytes
		rounds = max(rounds, r.rounds)
	}
	d := last.Sub(first)
	if env.tr != nil {
		st.allocs += heapAllocs() - a0
	}
	st.ops++
	st.opBusy += d
	if rounds > 0 {
		st.exec.busy += d
		st.exec.rankRounds += int64(liveRanks * rounds)
	}
	return d, err
}

// rank is one rank goroutine: it constructs every algorithm, reports
// ready, then serves ops until its command channel closes.
func (st *liveState) rank(env *runEnv, parent int64, c comm.Comm, ready chan<- error) error {
	r := c.Rank()
	var n *commCounts
	if st.counts != nil {
		n = &st.counts[r]
		c = wrapCounting(c, n)
	}
	type algo struct {
		a      core.Alltoaller
		v      core.Alltoallver
		rounds int
	}
	algos := make([]algo, len(liveAlgos))
	var err error
	for i, la := range liveAlgos {
		sp := env.tr.begin("core.New", parent)
		if la.v {
			algos[i].v, err = core.NewV(la.name, c, st.vMax, core.Options{})
		} else {
			algos[i].a, err = core.New(la.name, c, liveMaxBlock, core.Options{})
			if err == nil {
				algos[i].rounds = schedRounds(algos[i].a)
			}
		}
		sp.end()
		if err != nil {
			break
		}
	}
	size := max(liveRanks*liveMaxBlock, st.vMax)
	send, recv := comm.Alloc(size), comm.Alloc(size)
	if err == nil {
		err = c.Barrier()
	}
	ready <- err
	if err != nil {
		return err
	}
	for cmd := range st.cmds[r] {
		rep := liveReport{rank: r, rounds: algos[cmd.algo].rounds}
		sc, sd, rc, rd, stot, rtot := liveLayout(r, cmd)
		sb, rb := send.Bytes(), recv.Bytes()
		for d := range liveRanks {
			for i := range sc[d] {
				sb[sd[d]+i] = livePattern(r, d, i, cmd.salt)
			}
		}
		clear(rb[:rtot])
		if err := c.Barrier(); err != nil {
			rep.err = err
			st.reports <- rep
			continue
		}
		var before commCounts
		if n != nil {
			before = *n
		}
		sp := env.tr.begin("core.Alltoall", parent)
		rep.t0 = time.Now()
		if liveAlgos[cmd.algo].v {
			rep.err = algos[cmd.algo].v.Alltoallv(send.Slice(0, stot), sc, sd, recv.Slice(0, rtot), rc, rd)
		} else {
			rep.err = algos[cmd.algo].a.Alltoall(send.Slice(0, stot), recv.Slice(0, rtot), cmd.block)
		}
		rep.t1 = time.Now()
		sp.end()
		if n != nil {
			rep.counts = n.since(before)
		}
		if rep.err == nil {
			if st.corrupt != nil {
				st.corrupt(r, rb)
			}
			rep.err = liveCheck(r, cmd, rb, rc, rd)
		}
		st.reports <- rep
	}
	return nil
}

// liveLayout returns rank r's per-peer send and receive counts and
// displacements, and the send and receive totals.
func liveLayout(r int, cmd liveCmd) (sc, sd, rc, rd []int, stot, rtot int) {
	sc, rc = make([]int, liveRanks), make([]int, liveRanks)
	for p := range liveRanks {
		sc[p], rc[p] = cmd.block, cmd.block
		if cmd.count != nil {
			sc[p], rc[p] = cmd.count[r][p], cmd.count[p][r]
		}
	}
	sd, stot = core.DisplsFromCounts(sc)
	rd, rtot = core.DisplsFromCounts(rc)
	return sc, sd, rc, rd, stot, rtot
}

// liveCheck verifies every received byte.
func liveCheck(r int, cmd liveCmd, rb []byte, rc, rd []int) error {
	for s := range liveRanks {
		for i := range rc[s] {
			if got, want := rb[rd[s]+i], livePattern(s, r, i, cmd.salt); got != want {
				return fmt.Errorf("byte %d from rank %d is %#x, want %#x", i, s, got, want)
			}
		}
	}
	return nil
}
