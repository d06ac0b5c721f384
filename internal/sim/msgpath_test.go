package sim

import (
	"runtime"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
)

// pairwiseBody runs `rounds` pairwise all-to-alls on virtual buffers: in
// step k every rank receives a block from rank-k and sends one to rank+k,
// then waits for both. blocks lists the block sizes each step exchanges,
// one message pair per size.
func pairwiseBody(rounds int, blocks ...int) func(c comm.Comm) error {
	return func(c comm.Comm) error {
		n, me := c.Size(), c.Rank()
		bufs := make([]comm.Buffer, len(blocks))
		for i, b := range blocks {
			bufs[i] = comm.Virtual(b)
		}
		reqs := make([]comm.Request, 0, 2*len(blocks))
		for r := 0; r < rounds; r++ {
			for k := 1; k < n; k++ {
				reqs = reqs[:0]
				for i, b := range bufs {
					rq, err := c.Irecv(b, (me-k+n)%n, i)
					if err != nil {
						return err
					}
					reqs = append(reqs, rq)
				}
				for i, b := range bufs {
					rq, err := c.Isend(b, (me+k)%n, i)
					if err != nil {
						return err
					}
					reqs = append(reqs, rq)
				}
				if err := c.WaitAll(reqs); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// TestMessagePathAllocs bounds the simulator's steady-state allocations
// per message. Set-up (procs, coroutines, mailboxes, the event heap's and
// queues' growth) costs the same at any round count, so the difference
// between a short and a long run of the same exchange is the per-message
// cost alone. Both protocols run: a 512 B eager message and a 128 KiB
// rendezvous message per step, over intra- and inter-node pairs.
func TestMessagePathAllocs(t *testing.T) {
	// Not parallel: AllocsPerRun counts every goroutine's allocations.
	cfg := ClusterConfig{Model: netmodel.Dane(), Nodes: 2, PPN: 8, Seed: 1}
	measure := func(rounds int) (allocs float64, msgs uint64) {
		body := pairwiseBody(rounds, 512, 128<<10)
		allocs = testing.AllocsPerRun(3, func() {
			st, err := RunCluster(cfg, body)
			if err != nil {
				t.Fatal(err)
			}
			msgs = st.Messages
		})
		return allocs, msgs
	}
	a1, m1 := measure(2)
	a2, m2 := measure(10)
	if m2 <= m1 {
		t.Fatalf("messages %d (2 rounds) vs %d (10 rounds)", m1, m2)
	}
	perMsg := (a2 - a1) / float64(m2-m1)
	t.Logf("%.0f allocs / %d msgs, %.0f allocs / %d msgs: %.3f allocs per message", a1, m1, a2, m2, perMsg)
	if perMsg > 1 {
		t.Errorf("steady-state allocations per message = %.3f, want <= 1", perMsg)
	}
}

// BenchmarkRunCluster is the simulator engine's layer cost: one pairwise
// all-to-all of 1 KiB blocks on virtual buffers over Dane at 8 nodes x 16
// ranks, set-up included.
func BenchmarkRunCluster(b *testing.B) {
	cfg := ClusterConfig{Model: netmodel.Dane(), Nodes: 8, PPN: 16, Seed: 1}
	body := pairwiseBody(1, 1024)
	var events, msgs uint64
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := RunCluster(cfg, body)
		if err != nil {
			b.Fatal(err)
		}
		events += st.Events
		msgs += st.Messages
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(msgs), "allocs/msg")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
