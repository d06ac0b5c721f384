package core

import (
	"bytes"
	"fmt"

	"alltoallx/internal/comm"
	"alltoallx/internal/sched"
	"alltoallx/internal/trace"
)

// Schedule-backed alltoallv: the variable-count generators of
// internal/sched (sched.GenerateV) driven through the Alltoallver shell,
// registered as "sched:<generator>" so NewV, the tuned v-dispatcher and
// autotune sweeps can select them like any other v-algorithm.
//
// An alltoallv schedule is parameterized by the full p x p count matrix,
// which no single rank holds — each call starts with a counts allgather
// (control data, tagVSched), cross-checks the gathered matrix against
// this rank's recvCounts (the exchange deadlocks or corrupts under
// asymmetric declarations, so they are rejected up front), then compiles
// and statically verifies the schedule for that matrix. Compilation is
// memoized per instance: ML workloads re-issue the same count pattern
// for many steps, so the common case is one compile amortized over the
// epoch, with only the O(p) allgather per call. Payloads are packed into
// the schedule's canonical layout (send row-packed by destination, recv
// column-packed by source) around the executor run.

// tagVSched tags the per-call counts allgather of the sched-backed
// alltoallv (distinct from the other v-algorithm control tags).
const tagVSched = 331

// VSchedMaxRanks caps the worlds the sched-backed alltoallv accepts. Its
// schedule is parameterized by the p x p count matrix, which every rank
// allgathers (O(p^2) bytes per rank per call) and compiles and verifies
// whole per distinct matrix; at 128 ranks that matrix is already 128 KiB
// per rank. autotune reads it to keep the candidate off larger pools.
const VSchedMaxRanks = 128

type vSched struct {
	name     string // registry name: "sched:<generator>"
	gen      string // sched.GenerateV generator name
	c        comm.Comm
	maxTotal int
	rec      *trace.Recorder
	st       OpState

	rowBuf, matBuf     comm.Buffer // counts control data: always real
	packSend, packRecv comm.Buffer // payload staging in canonical layout

	// Compilation memo: the last count matrix (encoded) and its verified
	// executor.
	lastCounts []byte
	ex         *sched.Exec
}

func newVSched(gen string) vFactory {
	return func(c comm.Comm, maxTotal int, _ Options) (Alltoallver, error) {
		p := c.Size()
		if p > VSchedMaxRanks {
			return nil, fmt.Errorf("core: sched:%s compiles the assembled alltoallv schedule; worlds above %d ranks are not supported (have %d)",
				gen, VSchedMaxRanks, p)
		}
		return &vSched{
			name: SchedPrefix + gen, gen: gen, c: c, maxTotal: maxTotal,
			rec:    trace.NewRecorder(c.Now),
			rowBuf: comm.Alloc(p * 8),
			matBuf: comm.Alloc(p * p * 8),
		}, nil
	}
}

func (v *vSched) Name() string { return v.name }

func (v *vSched) Phases() map[trace.Phase]float64 { return v.rec.Snapshot() }

func (v *vSched) Start(send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) (Handle, error) {
	if err := checkVCall(v.c, v.maxTotal, send, sendCounts, sdispls, recv, recvCounts, rdispls); err != nil {
		return nil, err
	}
	return v.st.Start(v.c, func() error {
		v.rec.Reset()
		stop := v.rec.Time(trace.PhaseTotal)
		err := v.exchange(send, sendCounts, sdispls, recv, recvCounts, rdispls)
		stop()
		return err
	})
}

func (v *vSched) Alltoallv(send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) error {
	h, err := v.Start(send, sendCounts, sdispls, recv, recvCounts, rdispls)
	if err != nil {
		return err
	}
	return h.Wait()
}

// gatherCounts runs the direct allgather of every rank's sendCounts row
// into matBuf (control data, real buffers even under virtual payloads).
func (v *vSched) gatherCounts(sendCounts []int) error {
	p, r := v.c.Size(), v.c.Rank()
	for i, n := range sendCounts {
		putLeI64(v.rowBuf.Bytes()[i*8:], int64(n))
	}
	row := p * 8
	reqs := make([]comm.Request, 0, 2*(p-1))
	for s := 0; s < p; s++ {
		if s == r {
			continue
		}
		rq, err := v.c.Irecv(v.matBuf.Slice(s*row, row), s, tagVSched)
		if err != nil {
			return err
		}
		reqs = append(reqs, rq)
	}
	for d := 0; d < p; d++ {
		if d == r {
			continue
		}
		sq, err := v.c.Isend(v.rowBuf, d, tagVSched)
		if err != nil {
			return err
		}
		reqs = append(reqs, sq)
	}
	if err := v.c.Memcpy(v.matBuf.Slice(r*row, row), v.rowBuf); err != nil {
		return err
	}
	return v.c.WaitAll(reqs)
}

// compile returns the verified executor for the gathered count matrix,
// reusing the previous call's when the counts are unchanged.
func (v *vSched) compile(recvCounts []int) (*sched.Exec, error) {
	p, r := v.c.Size(), v.c.Rank()
	enc := v.matBuf.Bytes()
	if v.ex != nil && bytes.Equal(enc, v.lastCounts) {
		return v.ex, nil
	}
	counts := make([][]int, p)
	for s := 0; s < p; s++ {
		counts[s] = make([]int, p)
		for d := 0; d < p; d++ {
			counts[s][d] = int(leI64(enc[(s*p+d)*8:]))
		}
	}
	// Asymmetric declarations (rank s says it sends n bytes here, this
	// rank expects a different count from s) would deadlock or corrupt
	// the exchange: reject before compiling.
	for s := 0; s < p; s++ {
		if counts[s][r] != recvCounts[s] {
			return nil, fmt.Errorf("core: %s alltoallv counts are asymmetric: rank %d declares %d bytes for this rank, local recvCounts[%d] is %d",
				v.name, s, counts[s][r], s, recvCounts[s])
		}
	}
	s, err := sched.GenerateV(v.gen, counts)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", v.name, err)
	}
	if err := sched.Verify(s); err != nil {
		return nil, fmt.Errorf("core: %s failed static verification: %w", v.name, err)
	}
	v.lastCounts = append(v.lastCounts[:0], enc...)
	v.ex = sched.NewExec(s)
	return v.ex, nil
}

func (v *vSched) exchange(send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) error {
	if err := v.gatherCounts(sendCounts); err != nil {
		return fmt.Errorf("core: %s alltoallv counts allgather: %w", v.name, err)
	}
	ex, err := v.compile(recvCounts)
	if err != nil {
		return err
	}
	packSend := ensureStage(&v.packSend, send, v.maxTotal)
	packRecv := ensureStage(&v.packRecv, recv, v.maxTotal)
	stop := v.rec.Time(trace.PhaseRepack)
	_, err = packByCounts(v.c, packSend, send, sendCounts, sdispls)
	stop()
	if err != nil {
		return err
	}
	if err := ex.Run(v.c, packSend, packRecv, 1, v.rec); err != nil {
		return err
	}
	stop = v.rec.Time(trace.PhaseRepack)
	err = unpackByCounts(v.c, recv, recvCounts, rdispls, packRecv)
	stop()
	return err
}

func init() {
	for _, g := range sched.VGenerators() {
		vRegistry[SchedPrefix+g] = newVSched(g)
	}
}
