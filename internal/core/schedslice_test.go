package core

import (
	"fmt"
	"strings"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sched"
	"alltoallx/internal/testutil"
)

// slicedBody is liveBody that also inspects the construction: each rank
// holds only its own program, never an assembled schedule.
func slicedBody(gen string, block int) func(c comm.Comm) error {
	return func(c comm.Comm) error {
		p, rank := c.Size(), c.Rank()
		a, err := newSchedState(gen, c, block)
		if err != nil {
			return err
		}
		st := a.(*schedState)
		if st.Schedule() != nil {
			return fmt.Errorf("construction exposes a whole-world schedule")
		}
		if rp := st.Program(); rp == nil || rp.Rank != rank || rp.Ranks != p {
			return fmt.Errorf("sliced construction program = %+v, want rank %d of %d", rp, rank, p)
		}
		send := comm.Alloc(p * block)
		recv := comm.Alloc(p * block)
		testutil.FillAlltoall(send, rank, p, block)
		for iter := 0; iter < 2; iter++ {
			for i := range recv.Bytes() {
				recv.Bytes()[i] = 0xEE
			}
			if err := a.Alltoall(send, recv, block); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
			if err := testutil.CheckAlltoall(recv, rank, p, block); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
		}
		return nil
	}
}

// TestSchedSlicedPathCorrectness drives every generator through
// construction on the live runtime and checks every byte of the
// exchanges the rank programs run.
func TestSchedSlicedPathCorrectness(t *testing.T) {
	t.Parallel()
	for _, gen := range sched.Generators() {
		shape := struct{ nodes, ppn int }{3, 4}
		if gen == "hypercube" {
			shape = struct{ nodes, ppn int }{2, 8}
		}
		gen := gen
		t.Run(gen, func(t *testing.T) {
			t.Parallel()
			m := mapping(t, shape.nodes, shape.ppn)
			if err := runtime.Run(runtime.Config{Mapping: m}, slicedBody(gen, 9)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSchedCacheBounded is the regression test for the unbounded
// schedCache: retained bytes must never exceed the configured limit, no
// matter how many (generator, world shape) pairs a sweep compiles.
// Not parallel: it narrows the global cache limit.
func TestSchedCacheBounded(t *testing.T) {
	const limit = 1 << 20 // 1 MiB: a handful of small-world schedules
	old := setSchedCacheLimit(limit)
	defer setSchedCacheLimit(old)
	inserted := 0
	for _, p := range []int{4, 6, 8, 10, 12, 14, 16} {
		for _, gen := range []string{"sched:pairwise", "sched:ring", "sched:torus"} {
			gen := gen
			err := runtime.Run(runtime.Config{Ranks: p}, func(c comm.Comm) error {
				_, err := New(gen, c, 8, Options{})
				return err
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", gen, p, err)
			}
			inserted += p // one cached program per rank
			if n, bytes := schedCacheStats(); bytes > limit {
				t.Fatalf("after %s p=%d: cache holds %d B in %d entries, limit %d", gen, p, bytes, n, limit)
			}
		}
	}
	n, _ := schedCacheStats()
	if n == 0 {
		t.Fatalf("cache empty: eviction should leave recent entries resident")
	}
	if n >= inserted {
		t.Fatalf("cache holds all %d compiled rank programs under a %d B limit: nothing was evicted", n, limit)
	}
	// Shrinking the limit evicts immediately.
	setSchedCacheLimit(0)
	if n, bytes := schedCacheStats(); n != 0 || bytes != 0 {
		t.Fatalf("zero limit retains %d entries, %d B", n, bytes)
	}
}

// TestSchedSlicedRejectsBadWorld: the world gate rejects a world the
// generator refuses (hypercube at a non-power-of-two world must fail
// cleanly).
func TestSchedSlicedRejectsBadWorld(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Ranks: 6}, func(c comm.Comm) error {
		if _, err := newSchedState("hypercube", c, 8); err == nil {
			return fmt.Errorf("hypercube constructed at 6 ranks")
		} else if !strings.Contains(err.Error(), "power-of-two") {
			return fmt.Errorf("unexpected error: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecCopyErrorAttributable pins the satellite fix: a ChargeCopy
// failure at depth surfaces with the schedule name and round, like every
// sibling executor error path. errComm fails ChargeCopy only.
func TestExecCopyErrorAttributable(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Ranks: 1}, func(c comm.Comm) error {
		rp, err := sched.GenerateRank("pairwise", 1, 0, nil)
		if err != nil {
			return err
		}
		ex := sched.NewRankExec(rp)
		e := ex.Run(failCopyComm{Comm: c}, comm.Alloc(4), comm.Alloc(4), 4, nil)
		if e == nil {
			return fmt.Errorf("ChargeCopy failure swallowed")
		}
		if !strings.Contains(e.Error(), "pairwise") || !strings.Contains(e.Error(), "round 0") || !strings.Contains(e.Error(), "charge exploded") {
			return fmt.Errorf("copy error not attributable to schedule and round: %v", e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// failCopyComm wraps a communicator so ChargeCopy always fails.
type failCopyComm struct{ comm.Comm }

func (f failCopyComm) ChargeCopy(bytes, blocks int) error {
	return fmt.Errorf("charge exploded")
}
