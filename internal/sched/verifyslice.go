package sched

import (
	"errors"
	"fmt"

	"alltoallx/internal/topo"
)

// Large-world verification. The full verifier (verify.go) symbolically
// executes the assembled schedule — O(p · slots) state — which is exactly
// the cost rank-sliced compilation exists to avoid. The StreamVerifier
// proves what can be proved from one rank slice at a time, in O(p)
// persistent memory plus O(p + touched slots) per slice:
//
//   - every local check, per slice, by the same step walk the full
//     verifier runs (walk.go): structure, refs in range (per-rank count
//     sums for alltoallv), peers in range, no writes into the user send
//     buffer, the same-round race rules, no undefined reads, the
//     reduction rules, and — because a rank's recv buffer is written
//     only by its own steps — the exactly-once delivery accounting for
//     every recv slot. Only the naming of values differs: a slice knows
//     the content of its own send blocks and nothing that arrived over
//     the wire (localValues), so content is checked whenever the written
//     value is locally known, and a Reduce is rejected as a double
//     contribution only when both operands carry this rank's own;
//   - cross-rank round pairing, incrementally: per round, the send and
//     receive (from, to, length) multisets must agree. Where the full
//     verifier pairs and delivers each round's messages, a slice folds
//     them into per-round count and commutative-hash accumulators;
//     Finish compares them. Combined with the walk's duplicate-peer
//     checks this proves one message per ordered pair per round and
//     deadlock-freedom under the round discipline, with multiset
//     equality holding up to a 64-bit hash collision. For alltoallv the
//     same construction proves the per-pair count declarations
//     consistent: every slice folds its VSend row and VRecv column into
//     (src, dst, count) multiset fingerprints that must agree at Finish.
//
// What streaming cannot prove is that a multi-hop block arrives with the
// right *content*, or that a wire-carried partial is complete (both need
// cross-rank dataflow). VerifyWorld therefore keeps the full verifier
// authoritative up to FullVerifyRanks ranks: it runs Verify on the world
// Generate assembles from the very GenerateRank programs the ranks then
// execute, and streams only above that size.

// VerifyRank runs every local check on one rank's program. It does not
// prove cross-rank properties; stream all slices through a StreamVerifier
// (or VerifyWorldSliced) for those.
func VerifyRank(rp *RankProgram) error {
	if rp == nil {
		return errors.New("sched: nil rank program")
	}
	return NewStreamVerifier(rp.Ranks).Add(rp)
}

// unknown marks data that arrived over the wire: defined, but its
// identity is not locally derivable.
const unknown int64 = -2

// localValues names slot contents as far as one slice can know them: a
// known value is the send-space offset b the data originated at. For the
// routing collectives that is the block sent from offset b (only the
// self block or blocks can land locally); for the reductions, a partial
// of result block b carrying this rank's own contribution. Everything
// received is unknown.
type localValues struct {
	reduction bool
	// selfRowOff/selfColOff/selfCount locate the self message in the
	// packed routing layouts: this rank's own blocks occupy send offsets
	// [selfRowOff, selfRowOff+selfCount) and must land at recv offsets
	// [selfColOff, selfColOff+selfCount). (For alltoall both offsets are
	// the rank and the count is 1.)
	selfRowOff, selfColOff, selfCount int
}

// combine keeps whichever operand is known (the combined partial carries
// its block); two known operands would both carry this rank's
// contribution.
func (lv *localValues) combine(rank int, src, dst int64) (val int64, srcBlk, dstBlk, twice int) {
	val, twice = src, -1
	switch {
	case src >= 0 && dst >= 0:
		twice = rank
	case dst >= 0:
		val = dst
	}
	return val, lv.resultBlock(src), lv.resultBlock(dst), twice
}

func (lv *localValues) resultBlock(val int64) int {
	if val < 0 {
		return -1
	}
	return int(val)
}

// checkRecv checks a locally known routed block lands where this rank's
// self message puts it.
func (lv *localValues) checkRecv(rank, d int, val int64, where site) error {
	if lv.reduction || val < 0 {
		return nil
	}
	row, col := int64(lv.selfRowOff), int64(lv.selfColOff)
	if val-row != int64(d)-col || val < row || val >= row+int64(lv.selfCount) {
		return fmt.Errorf("%s: recv block %d of rank %d receives own send block %d, which belongs at %d",
			where, d, rank, val, col+val-row)
	}
	return nil
}

// msgHash folds one message's round, endpoints and length into a 64-bit
// value; per-round sums of these are the commutative multiset
// fingerprints Finish compares. The alltoallv count declarations reuse
// it with ri = -1.
func msgHash(ri, from, to, n int) uint64 {
	x := uint64(ri)
	for _, v := range [3]int{from, to, n} {
		x = (x ^ uint64(v)) * 0x9E3779B97F4A7C15
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
	}
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// roundAcc accumulates one round's cross-rank message fingerprints.
type roundAcc struct {
	sends, recvs         int
	sendHash, recvHash   uint64
	sendBlocks, recvBlks int
}

// StreamVerifier proves schedule properties incrementally over rank
// slices, in O(p + rounds) persistent memory (plus O(p + touched slots)
// transient per Add). Feed every rank's program exactly once (any
// order), then call Finish.
type StreamVerifier struct {
	p       int
	name    string
	coll    Coll
	op      string
	rounds  int
	scratch []int
	started bool
	seen    []bool
	nseen   int
	acc     []roundAcc
	dead    []bool
	// Alltoallv count-declaration fingerprints: every slice's VSend row
	// and VRecv column must describe the same matrix.
	vSendHash, vRecvHash     uint64
	vSendBlocks, vRecvBlocks int
	// w and lv are the slice walk and its value naming, reused by every
	// Add.
	w  rankWalk
	lv localValues
}

// NewStreamVerifier returns a verifier expecting the slices of a p-rank
// world.
func NewStreamVerifier(p int) *StreamVerifier {
	sv := &StreamVerifier{p: p, seen: make([]bool, p)}
	sv.w = rankWalk{p: p, vals: &sv.lv}
	return sv
}

// SetDead marks ranks as failed before streaming begins: their slices are
// neither expected nor accepted, surviving slices must not address them,
// and the delivery accounting expects their blocks to stay undelivered.
// This is how a repaired world (Repair) is proved — the surviving slices
// must be a complete, consistent schedule among themselves. Repair is an
// all-to-all facility; dead ranks in other collectives are rejected.
func (sv *StreamVerifier) SetDead(dead ...int) error {
	if sv.started {
		return errors.New("sched: SetDead must precede the first Add")
	}
	if sv.dead == nil {
		sv.dead = make([]bool, sv.p)
		sv.w.dead = sv.dead
	}
	for _, d := range dead {
		if d < 0 || d >= sv.p {
			return fmt.Errorf("sched: dead rank %d out of range 0..%d", d, sv.p-1)
		}
		if !sv.dead[d] {
			sv.dead[d] = true
			sv.seen[d] = true
			sv.nseen++
		}
	}
	return nil
}

// checkSliceHeader validates one slice's collective-describing fields.
func checkSliceHeader(rp *RankProgram) error {
	coll := rp.Collective()
	if err := checkHeader(coll, rp.Op, rp.Scratch, "rank program"); err != nil {
		return err
	}
	if coll == CollAlltoallv {
		if len(rp.VSend) != rp.Ranks || len(rp.VRecv) != rp.Ranks {
			return fmt.Errorf("sched: alltoallv rank program must declare %d-entry VSend and VRecv counts (have %d and %d)",
				rp.Ranks, len(rp.VSend), len(rp.VRecv))
		}
		for d, n := range rp.VSend {
			if err := checkCount(n, rp.Rank, d); err != nil {
				return err
			}
		}
		for s, n := range rp.VRecv {
			if err := checkCount(n, s, rp.Rank); err != nil {
				return err
			}
		}
		if rp.VSend[rp.Rank] != rp.VRecv[rp.Rank] {
			return fmt.Errorf("sched: rank %d declares self count %d in VSend but %d in VRecv",
				rp.Rank, rp.VSend[rp.Rank], rp.VRecv[rp.Rank])
		}
	} else if rp.VSend != nil || rp.VRecv != nil {
		return fmt.Errorf("sched: per-pair counts on a non-alltoallv %s rank program", coll)
	}
	return nil
}

// Add verifies one rank's slice locally and folds its cross-rank
// fingerprints into the stream state.
func (sv *StreamVerifier) Add(rp *RankProgram) error {
	if rp == nil {
		return errors.New("sched: nil rank program")
	}
	p := sv.p
	if rp.Ranks != p {
		return fmt.Errorf("sched: rank program compiled for %d ranks, stream expects %d", rp.Ranks, p)
	}
	if rp.Rank < 0 || rp.Rank >= p {
		return fmt.Errorf("sched: rank program rank %d out of range 0..%d", rp.Rank, p-1)
	}
	if sv.w.isDead(rp.Rank) {
		return fmt.Errorf("sched: rank %d is marked dead but streamed a slice", rp.Rank)
	}
	if sv.seen[rp.Rank] {
		return fmt.Errorf("sched: rank %d streamed twice", rp.Rank)
	}
	if len(rp.Rounds) == 0 {
		return fmt.Errorf("sched: rank %d program has no rounds (even the trivial schedule needs the self-block copy)", rp.Rank)
	}
	if err := checkSliceHeader(rp); err != nil {
		return err
	}
	if sv.dead != nil && rp.Collective() != CollAlltoall {
		return fmt.Errorf("sched: dead-rank verification applies to all-to-all schedules, not %s", rp.Collective())
	}
	if !sv.started {
		sv.started = true
		sv.name = rp.Name
		sv.coll = rp.Collective()
		sv.op = rp.Op
		sv.rounds = len(rp.Rounds)
		sv.scratch = append([]int(nil), rp.Scratch...)
		sv.acc = make([]roundAcc, sv.rounds)
	} else {
		if rp.Name != sv.name {
			return fmt.Errorf("sched: rank %d program is %q, stream carries %q", rp.Rank, rp.Name, sv.name)
		}
		if rp.Collective() != sv.coll {
			return fmt.Errorf("sched: rank %d program is a %s, stream carries %s", rp.Rank, rp.Collective(), sv.coll)
		}
		if rp.Op != sv.op {
			return fmt.Errorf("sched: rank %d program declares operator %q, stream carries %q", rp.Rank, rp.Op, sv.op)
		}
		if len(rp.Rounds) != sv.rounds {
			return fmt.Errorf("sched: rank %d program has %d rounds, stream carries %d", rp.Rank, len(rp.Rounds), sv.rounds)
		}
		if len(rp.Scratch) != len(sv.scratch) {
			return fmt.Errorf("sched: rank %d program declares %d scratch spaces, stream carries %d", rp.Rank, len(rp.Scratch), len(sv.scratch))
		}
		for i, sz := range rp.Scratch {
			if sz != sv.scratch[i] {
				return fmt.Errorf("sched: rank %d scratch space %d has size %d, stream carries %d", rp.Rank, i, sz, sv.scratch[i])
			}
		}
	}
	if rp.Collective() == CollAlltoallv {
		for d, n := range rp.VSend {
			sv.vSendHash += msgHash(-1, rp.Rank, d, n)
			sv.vSendBlocks += n
		}
		for s, n := range rp.VRecv {
			sv.vRecvHash += msgHash(-1, s, rp.Rank, n)
			sv.vRecvBlocks += n
		}
	}
	if err := sv.walk(rp); err != nil {
		return err
	}
	sv.seen[rp.Rank] = true
	sv.nseen++
	return nil
}

// walk runs the shared step walk over one slice, folding each round's
// messages into the fingerprint accumulators and landing its receives,
// with unknown content, at the round's wait.
func (sv *StreamVerifier) walk(rp *RankProgram) error {
	r, coll := rp.Rank, rp.Collective()
	w, lv := &sv.w, &sv.lv
	w.rank, w.coll, w.reduction, w.op = r, coll, coll.reduction(), rp.Op
	send, recv := userSpaces(coll, rp.Ranks, rp.VSend, rp.VRecv)
	w.layout(send, recv, rp.Scratch, false)
	*lv = localValues{reduction: w.reduction, selfRowOff: r, selfColOff: r, selfCount: 1}
	if coll == CollAlltoallv {
		lv.selfRowOff, lv.selfColOff, lv.selfCount = sumCounts(rp.VSend[:r]), sumCounts(rp.VRecv[:r]), rp.VSend[r]
	}
	// The send buffer is read-only and pre-filled: slot b holds the
	// known value b.
	for b := 0; b < w.sendSize; b++ {
		w.slots[b].val = int64(b)
	}

	for ri, steps := range rp.Rounds {
		if err := w.round(ri, steps); err != nil {
			return err
		}
		a := &sv.acc[ri]
		for _, m := range w.sends {
			a.sends++
			a.sendBlocks += m.ref.N
			a.sendHash += msgHash(ri, r, m.peer, m.ref.N)
		}
		for _, m := range w.recvs {
			a.recvs++
			a.recvBlks += m.ref.N
			a.recvHash += msgHash(ri, m.peer, r, m.ref.N)
			if err := w.deliver(m.ref, nil, unknown, deliverySite(ri, r)); err != nil {
				return err
			}
		}
	}
	return w.final()
}

// Finish checks the cross-rank properties once every slice has been
// added: full coverage, per-round matching send/receive multisets, and
// (alltoallv) consistent per-pair count declarations across slices.
func (sv *StreamVerifier) Finish() error {
	if sv.nseen != sv.p {
		for r, ok := range sv.seen {
			if !ok {
				return fmt.Errorf("sched: stream verification incomplete: rank %d missing (%d/%d seen)", r, sv.nseen, sv.p)
			}
		}
	}
	for ri, a := range sv.acc {
		if a.sends != a.recvs {
			return fmt.Errorf("sched: round %d: %d sends but %d receives posted (the round discipline would deadlock)", ri, a.sends, a.recvs)
		}
		if a.sendBlocks != a.recvBlks {
			return fmt.Errorf("sched: round %d: %d blocks sent but %d expected by receives", ri, a.sendBlocks, a.recvBlks)
		}
		if a.sendHash != a.recvHash {
			return fmt.Errorf("sched: round %d: send/receive (from, to, length) multisets differ (unmatched or mismatched message)", ri)
		}
	}
	if sv.coll == CollAlltoallv {
		if sv.vSendBlocks != sv.vRecvBlocks {
			return fmt.Errorf("sched: alltoallv count declarations disagree: %d blocks declared sent but %d declared received", sv.vSendBlocks, sv.vRecvBlocks)
		}
		if sv.vSendHash != sv.vRecvHash {
			return errors.New("sched: alltoallv count declarations disagree across slices (some pair's VSend and VRecv entries differ)")
		}
	}
	return nil
}

// FullVerifyRanks is the largest world VerifyWorld proves with the full
// symbolic verifier. Its state is O(p · slots) — O(p^3) slots for the
// route schedules — and it needs the assembled schedule in memory (the
// ring schedule at 256 ranks is ~800 MB of steps), so larger worlds are
// streamed instead.
const FullVerifyRanks = 128

// VerifyWorld is the world gate every consumer of rank programs passes
// before running any of them: VerifyPrograms over the named generator's
// GenerateRank programs. The verdict covers exactly the bytes
// GenerateRank emits, since generation is deterministic.
func VerifyWorld(name string, p int, m *topo.Mapping) error {
	if _, err := lookupGen(name, p); err != nil {
		return err
	}
	return VerifyPrograms(p, func(r int) (*RankProgram, error) { return GenerateRank(name, p, r, m) })
}

// VerifyPrograms proves the p-rank world whose rank-r program is
// program(r). Up to FullVerifyRanks ranks it assembles the world and runs
// the full symbolic Verify, content proof included; above that it
// streams the programs through a StreamVerifier.
func VerifyPrograms(p int, program func(rank int) (*RankProgram, error)) error {
	if err := checkRanks(p); err != nil {
		return err
	}
	if p > FullVerifyRanks {
		return streamPrograms(p, program)
	}
	rps := make([]*RankProgram, p)
	for r := range rps {
		rp, err := program(r)
		if err != nil {
			return err
		}
		rps[r] = rp
	}
	s, err := assemble(rps)
	if err == nil {
		err = Verify(s)
	}
	if err != nil {
		return fmt.Errorf("sched: %s at %d ranks failed verification: %w", rps[0].Name, p, err)
	}
	return nil
}

// VerifyWorldSliced streams every rank's GenerateRank slice of the named
// generator through a StreamVerifier: the large-world verification mode.
// Memory stays O(p + one slice); time is O(total schedule size) — the
// same steps the world will execute, never the assembled schedule.
func VerifyWorldSliced(name string, p int, m *topo.Mapping) error {
	return streamPrograms(p, func(r int) (*RankProgram, error) { return GenerateRank(name, p, r, m) })
}

// streamPrograms adds program(r) for every rank but the dead ones to one
// StreamVerifier.
func streamPrograms(p int, program func(rank int) (*RankProgram, error), dead ...int) error {
	sv := NewStreamVerifier(p)
	if len(dead) > 0 {
		if err := sv.SetDead(dead...); err != nil {
			return err
		}
	}
	for r := 0; r < p; r++ {
		if sv.w.isDead(r) {
			continue
		}
		rp, err := program(r)
		if err != nil {
			return err
		}
		if err := sv.Add(rp); err != nil {
			return err
		}
	}
	return sv.Finish()
}
