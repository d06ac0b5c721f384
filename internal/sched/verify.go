package sched

import (
	"errors"
	"fmt"
	"math/bits"
)

// The full verifier drives the shared step walk (walk.go) round by round
// over every rank of an assembled world. Values are named globally —
// block ids for the routing collectives, partials with contributor masks
// for the reductions — and each round's messages are paired and their
// payloads delivered once every rank has walked it. That cross-rank
// dataflow is the content proof a streamed slice (verifyslice.go) cannot
// give.

// Verify statically proves a schedule implements its collective's
// semantics before it ever runs:
//
//   - structure and every local rule of the step walk: a well-formed
//     header (Counts exactly for alltoallv, an operator label exactly
//     for reductions), a step list per rank per round, refs and peers in
//     range, no writes into the user send buffer, no same-round races
//     (received data lands at the round's wait), no undefined reads;
//   - round pairing: every send is matched by a receive of the same
//     length within its round, at most one message per ordered rank pair
//     per round — deadlock-freedom under the round discipline;
//   - dataflow, by symbolic execution: every recv slot is written
//     exactly once and finally holds exactly its block (routing:
//     exactly-count-per-pair delivery, the count being 1 for alltoall
//     and Counts[s][d] for alltoallv) or a complete partial of its
//     result block (reductions: a Reduce must combine partials of one
//     block with disjoint contributor sets, so every rank's contribution
//     enters exactly once).
//
// The proof is per-schedule, not per-run: a verified schedule is correct
// for every block size on every substrate (and, for reductions, every
// associative commutative operator).
func Verify(s *Schedule) error {
	if s == nil {
		return errors.New("sched: nil schedule")
	}
	p := s.Ranks
	if p <= 0 {
		return fmt.Errorf("sched: invalid rank count %d", p)
	}
	if len(s.Rounds) == 0 {
		return errors.New("sched: schedule has no rounds (even the trivial schedule needs the self-block copy)")
	}
	if err := checkHeader(s.Collective(), s.Op, s.Scratch, "schedule"); err != nil {
		return err
	}
	if err := checkCounts(s.Collective(), s.Counts, p); err != nil {
		return err
	}

	walks := newWorld(s)
	for ri, rd := range s.Rounds {
		if len(rd.Steps) != p {
			return fmt.Errorf("sched: round %d has %d step lists, want one per rank (%d)", ri, len(rd.Steps), p)
		}
		for r, w := range walks {
			if err := w.round(ri, rd.Steps[r]); err != nil {
				return err
			}
		}
		if err := deliverRound(walks, ri); err != nil {
			return err
		}
	}
	for _, w := range walks {
		if err := w.final(); err != nil {
			return err
		}
	}
	return nil
}

// checkCounts validates a schedule's per-pair count matrix: present
// exactly for alltoallv, p rows of p non-negative counts.
func checkCounts(coll Coll, counts [][]int, p int) error {
	if (coll == CollAlltoallv) != (counts != nil) {
		if counts == nil {
			return errors.New("sched: alltoallv schedule must declare its per-pair counts")
		}
		return fmt.Errorf("sched: per-pair counts on a non-alltoallv %s schedule", coll)
	}
	if counts == nil {
		return nil
	}
	if len(counts) != p {
		return fmt.Errorf("sched: counts matrix has %d rows, want %d", len(counts), p)
	}
	for src, row := range counts {
		if len(row) != p {
			return fmt.Errorf("sched: counts row %d has %d entries, want %d", src, len(row), p)
		}
		for dst, n := range row {
			if err := checkCount(n, src, dst); err != nil {
				return err
			}
		}
	}
	return nil
}

// partial is the symbolic value of one slot of a reduction schedule: a
// sum over some contributor set for one result block.
type partial struct {
	blk  int
	mask []uint64
}

// worldValues names slot contents across the whole world. For the
// routing collectives a value is a global block id: src*p+dst for
// alltoall, and for alltoallv the block's position in the row-packed
// concatenation of all count rows. For the reductions it indexes the
// partials table.
type worldValues struct {
	p    int
	coll Coll
	// expect[r][off] is the block id an alltoallv schedule must deliver
	// into recv slot off of rank r.
	expect    [][]int64
	parts     []partial
	maskWords int
}

// newWorld builds one dense walk per rank of s, sharing one worldValues,
// with every send space seeded with its rank's blocks or contributions.
func newWorld(s *Schedule) []*rankWalk {
	p, coll := s.Ranks, s.Collective()
	v := &worldValues{p: p, coll: coll, maskWords: (p + 63) / 64}
	walks := make([]*rankWalk, p)
	for r := range walks {
		w := &rankWalk{rank: r, p: p, coll: coll, reduction: coll.reduction(), op: s.Op, vals: v}
		send, recv := userSpaces(coll, p, countsRow(s.Counts, r), countsCol(s.Counts, r))
		w.layout(send, recv, s.Scratch, true)
		walks[r] = w
	}

	// Alltoallv ids index the row-packed concatenation of all count
	// rows, so the expected recv content of slot colOff[r][s]+j is the
	// id of the j-th block of the s->r message.
	var rowBase []int64
	if coll == CollAlltoallv {
		rowBase = make([]int64, p+1)
		for r, w := range walks {
			rowBase[r+1] = rowBase[r] + int64(w.sendSize)
		}
		v.expect = make([][]int64, p)
		for r, w := range walks {
			v.expect[r] = make([]int64, 0, w.recvSize)
			for src := 0; src < p; src++ {
				off := rowBase[src]
				for d := 0; d < r; d++ {
					off += int64(s.Counts[src][d])
				}
				for j := 0; j < s.Counts[src][r]; j++ {
					v.expect[r] = append(v.expect[r], off+int64(j))
				}
			}
		}
	}

	for r, w := range walks {
		for b := 0; b < w.sendSize; b++ {
			var val int64
			switch {
			case w.reduction:
				val = int64(len(v.parts))
				mask := make([]uint64, v.maskWords)
				mask[r/64] |= 1 << (r % 64)
				v.parts = append(v.parts, partial{blk: b, mask: mask})
			case coll == CollAlltoallv:
				val = rowBase[r] + int64(b)
			default:
				val = int64(r)*int64(p) + int64(b)
			}
			w.slots[b].val = val
		}
	}
	return walks
}

// deliverRound pairs round ri's messages once every rank has walked it
// and delivers each send's payload into its receive, at the round's
// wait. Sends and receives are taken in rank order, so a faulty schedule
// always reports the same fault.
func deliverRound(walks []*rankWalk, ri int) error {
	stamp := int32(ri + 1)
	// The send and receive multisets must match exactly.
	for r, w := range walks {
		for _, m := range w.sends {
			to := walks[m.peer]
			if to.fromSeen[r] != stamp {
				return fmt.Errorf("sched: round %d: unmatched send %d->%d (no receive posted — the round discipline would deadlock)", ri, r, m.peer)
			}
			if n := to.recvs[to.fromIdx[r]].ref.N; n != m.ref.N {
				return fmt.Errorf("sched: round %d: message %d->%d sends %d blocks but the receive expects %d", ri, r, m.peer, m.ref.N, n)
			}
		}
	}
	for r, w := range walks {
		for _, m := range w.recvs {
			if walks[m.peer].toSeen[r] != stamp {
				return fmt.Errorf("sched: round %d: unmatched receive at %d from %d (no send posted — the round discipline would deadlock)", ri, r, m.peer)
			}
		}
	}
	for r, w := range walks {
		for _, m := range w.sends {
			to := walks[m.peer]
			dst := to.recvs[to.fromIdx[r]].ref
			if err := to.deliver(dst, w.payload[m.at:m.at+m.ref.N], 0, messageSite(ri, r, m.peer)); err != nil {
				return err
			}
		}
	}
	return nil
}

// combine forms the partial a Reduce step leaves at the destination slot:
// both operands must be partials of the same result block with disjoint
// contributor sets (a shared contributor would enter the sum twice).
func (v *worldValues) combine(_ int, src, dst int64) (int64, int, int, int) {
	sp, dp := v.parts[src], v.parts[dst]
	if sp.blk != dp.blk {
		return 0, sp.blk, dp.blk, -1
	}
	mask := make([]uint64, v.maskWords)
	for w := range mask {
		if both := sp.mask[w] & dp.mask[w]; both != 0 {
			return 0, sp.blk, dp.blk, w*64 + bits.TrailingZeros64(both)
		}
		mask[w] = sp.mask[w] | dp.mask[w]
	}
	v.parts = append(v.parts, partial{blk: sp.blk, mask: mask})
	return int64(len(v.parts) - 1), sp.blk, dp.blk, -1
}

func (v *worldValues) resultBlock(val int64) int { return v.parts[val].blk }

// checkRecv enforces the final-content contract on a recv write: a
// reduction result must be complete, a routed block must be the one the
// slot expects.
func (v *worldValues) checkRecv(rank, d int, val int64, where site) error {
	if v.coll.reduction() {
		for w, m := range v.parts[val].mask {
			ranksHere := v.p - w*64
			full := ^uint64(0)
			if ranksHere < 64 {
				full = uint64(1)<<ranksHere - 1
			}
			if m != full {
				missing := bits.TrailingZeros64(^m & full)
				return fmt.Errorf("%s: recv block %d of rank %d misses the contribution of rank %d (incomplete reduction)", where, d, rank, w*64+missing)
			}
		}
		return nil
	}
	if v.coll == CollAlltoallv {
		if want := v.expect[rank][d]; val != want {
			return fmt.Errorf("%s: recv block %d of rank %d receives block id %d, want %d", where, d, rank, val, want)
		}
		return nil
	}
	if want := int64(d)*int64(v.p) + int64(rank); val != want {
		return fmt.Errorf("%s: recv block %d of rank %d receives block (%d->%d), want (%d->%d)",
			where, d, rank, val/int64(v.p), val%int64(v.p), d, rank)
	}
	return nil
}
