package core

import (
	"bytes"
	"fmt"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sched"
	"alltoallx/internal/sim"
	"alltoallx/internal/testutil"
	"alltoallx/internal/trace"
)

// TestSchedLiveCorrectness runs every schedule-backed algorithm on the
// live runtime across world shapes and block sizes, through the same
// fill/run-twice/verify body as the loop-coded algorithms.
func TestSchedLiveCorrectness(t *testing.T) {
	t.Parallel()
	for _, name := range SchedNames() {
		shapes := []struct{ nodes, ppn int }{{2, 4}, {3, 4}, {1, 5}}
		if name == "sched:hypercube" {
			shapes = []struct{ nodes, ppn int }{{2, 4}, {4, 4}, {1, 2}}
		}
		for _, shape := range shapes {
			for _, block := range []int{1, 4, 9000} {
				name, shape, block := name, shape, block
				t.Run(fmt.Sprintf("%s/n%d_ppn%d_b%d", name, shape.nodes, shape.ppn, block), func(t *testing.T) {
					t.Parallel()
					m := mapping(t, shape.nodes, shape.ppn)
					if err := runtime.Run(runtime.Config{Mapping: m}, liveBody(name, Options{}, block)); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestSchedSimulatedCorrectness runs every schedule-backed algorithm
// under the discrete-event simulator with real payloads.
func TestSchedSimulatedCorrectness(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = tinyNode()
	for _, name := range SchedNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := sim.ClusterConfig{Model: model, Nodes: 2, PPN: 8, Seed: 42}
			if _, err := sim.RunCluster(cfg, liveBody(name, Options{}, 7)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSchedCrossSubstrateEquivalence proves sched:pairwise output is
// byte-identical to the loop-coded pairwise algorithm on both substrates:
// the schedule subsystem is a compilation of the same exchange, not a
// different collective.
func TestSchedCrossSubstrateEquivalence(t *testing.T) {
	t.Parallel()
	const block = 13
	body := func(collect [][]byte, algo string) func(c comm.Comm) error {
		return func(c comm.Comm) error {
			p, rank := c.Size(), c.Rank()
			a, err := New(algo, c, block, Options{})
			if err != nil {
				return err
			}
			send := comm.Alloc(p * block)
			recv := comm.Alloc(p * block)
			testutil.FillAlltoall(send, rank, p, block)
			if err := a.Alltoall(send, recv, block); err != nil {
				return err
			}
			collect[rank] = append([]byte(nil), recv.Bytes()...)
			return nil
		}
	}
	for _, substrate := range []string{"live", "sim"} {
		substrate := substrate
		t.Run(substrate, func(t *testing.T) {
			t.Parallel()
			m := mapping(t, 2, 6)
			p := m.Size()
			ref := make([][]byte, p)
			got := make([][]byte, p)
			run := func(collect [][]byte, algo string) error {
				if substrate == "live" {
					return runtime.Run(runtime.Config{Mapping: m}, body(collect, algo))
				}
				model := netmodel.Dane()
				model.Node = tinyNode()
				_, err := sim.RunCluster(sim.ClusterConfig{Model: model, Nodes: 2, PPN: 6, Seed: 7}, body(collect, algo))
				return err
			}
			if err := run(ref, "pairwise"); err != nil {
				t.Fatal(err)
			}
			if err := run(got, "sched:pairwise"); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p; r++ {
				if !bytes.Equal(ref[r], got[r]) {
					t.Fatalf("%s: rank %d recv differs between pairwise and sched:pairwise", substrate, r)
				}
			}
		})
	}
}

// TestSchedHandles drives a schedule-backed algorithm through the
// Start/Test/Wait machinery on the live runtime: the one-outstanding rule
// and handle completion must hold like any other algorithm.
func TestSchedHandles(t *testing.T) {
	t.Parallel()
	m := mapping(t, 2, 4)
	err := runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		const block = 5
		p, rank := c.Size(), c.Rank()
		a, err := New("sched:ring", c, block, Options{})
		if err != nil {
			return err
		}
		send := comm.Alloc(p * block)
		recv := comm.Alloc(p * block)
		testutil.FillAlltoall(send, rank, p, block)
		h, err := a.Start(send, recv, block)
		if err != nil {
			return err
		}
		if _, err := a.Start(send, recv, block); err == nil {
			return fmt.Errorf("second Start while pending succeeded")
		}
		if err := h.Wait(); err != nil {
			return err
		}
		if done, err := h.Test(); !done || err != nil {
			return fmt.Errorf("Test after Wait = (%v, %v)", done, err)
		}
		if err := testutil.CheckAlltoall(recv, rank, p, block); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSchedPhases checks the trace breakdown: schedules with repack
// copies report PhaseRepack and PhaseTotal through the standard Phases
// path.
func TestSchedPhases(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = tinyNode()
	snaps := make([]map[trace.Phase]float64, 16)
	_, err := sim.RunCluster(sim.ClusterConfig{Model: model, Nodes: 2, PPN: 8, Seed: 3}, func(c comm.Comm) error {
		const block = 64
		a, err := New("sched:ring", c, block, Options{})
		if err != nil {
			return err
		}
		send := comm.Virtual(c.Size() * block)
		recv := comm.Virtual(c.Size() * block)
		if err := a.Alltoall(send, recv, block); err != nil {
			return err
		}
		snaps[c.Rank()] = a.Phases()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := trace.MaxMerge(snaps)
	if merged[trace.PhaseTotal] <= 0 {
		t.Errorf("PhaseTotal not recorded: %v", merged)
	}
	if merged[trace.PhaseRepack] <= 0 {
		t.Errorf("PhaseRepack not recorded (ring schedules repack every forwarded block): %v", merged)
	}
	if merged[trace.PhaseTotal] < merged[trace.PhaseRepack] {
		t.Errorf("total %g < repack %g", merged[trace.PhaseTotal], merged[trace.PhaseRepack])
	}
}

// TestSchedTunedDispatch: a dispatch spec with schedule-backed winners
// validates and dispatches like any other algorithm — the autotune loop
// can tune over generated schedules.
func TestSchedTunedDispatch(t *testing.T) {
	t.Parallel()
	spec := &Dispatch{Entries: []DispatchEntry{
		{MaxBlock: 16, Name: "sched:ring", Algo: "sched:ring"},
		{MaxBlock: 4096, Name: "bruck", Algo: "bruck"},
	}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	m := mapping(t, 2, 4)
	err := runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		const maxBlock = 64
		p, rank := c.Size(), c.Rank()
		a, err := New("tuned", c, maxBlock, Options{Table: spec})
		if err != nil {
			return err
		}
		send := comm.Alloc(p * maxBlock)
		recv := comm.Alloc(p * maxBlock)
		for _, block := range []int{8, 64} {
			testutil.FillAlltoall(send, rank, p, block)
			if err := a.Alltoall(send, recv, block); err != nil {
				return err
			}
			if err := testutil.CheckAlltoall(recv, rank, p, block); err != nil {
				return fmt.Errorf("block %d: %w", block, err)
			}
		}
		if got := a.(interface{ Picked() string }).Picked(); got != "bruck" {
			return fmt.Errorf("64 B picked %q, want bruck", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSchedVirtualRuns checks virtual (payload-free) buffers flow through
// schedule executors in the simulator — the paper-scale mode.
func TestSchedVirtualRuns(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = tinyNode()
	for _, name := range SchedNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, err := sim.RunCluster(sim.ClusterConfig{Model: model, Nodes: 2, PPN: 8, Seed: 5}, func(c comm.Comm) error {
				const block = 256
				a, err := New(name, c, block, Options{})
				if err != nil {
					return err
				}
				send := comm.Virtual(c.Size() * block)
				recv := comm.Virtual(c.Size() * block)
				return a.Alltoall(send, recv, block)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSchedExposesSchedule: this rank's compiled program is inspectable
// through the Program() assertion and reports coherent stats; no
// assembled schedule is kept.
func TestSchedExposesSchedule(t *testing.T) {
	t.Parallel()
	m := mapping(t, 2, 4)
	err := runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		a, err := New("sched:torus", c, 4, Options{})
		if err != nil {
			return err
		}
		if s := a.(interface{ Schedule() *sched.Schedule }).Schedule(); s != nil {
			return fmt.Errorf("construction kept an assembled schedule")
		}
		rp := a.(interface{ Program() *sched.RankProgram }).Program()
		if rp.Ranks != c.Size() || rp.Rank != c.Rank() {
			return fmt.Errorf("program is rank %d of %d, want rank %d of %d", rp.Rank, rp.Ranks, c.Rank(), c.Size())
		}
		// The topology is 2 nodes x 4 ppn: the torus generator must have
		// picked that grid up from the communicator.
		if rp.Name != "torus2x4" {
			return fmt.Errorf("program name %q, want torus2x4 (from the world topology)", rp.Name)
		}
		if st := rp.Stats(); st.Messages == 0 || st.Rounds == 0 {
			return fmt.Errorf("empty stats %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
