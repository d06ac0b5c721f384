package sched

import "fmt"

// The step walk both schedule verifiers share. Verify (verify.go) drives
// it round by round over every rank of an assembled world; the
// StreamVerifier (verifyslice.go) drives it rank by rank over one slice.
// Every local check lives here exactly once: header, scratch and buffer
// reference validation, peer ranges and duplicate peers per round, no
// writes into the user send buffer, the src/dst overlap rule, the
// same-round race stamps, undefined reads, the Reduce rules, and the
// exactly-once accounting of every recv slot.
//
// The two verifiers differ in only two ways:
//
//   - how a slot's value is named (the values interface): global block
//     ids and reduction partials for the full proof, "locally known or
//     unknown" for a slice;
//   - where a message goes: the walk leaves each round's sends (with a
//     payload snapshot) and posted receives in rankWalk.sends and
//     rankWalk.recvs, and the driver either pairs and delivers them once
//     every rank has walked the round, or folds them into its
//     fingerprint accumulators.

// undef marks a slot holding no value.
const undef int64 = -1

// slot is one buffer slot of a rank's symbolic machine: its value and
// the stamps marking its same-round roles. A slot is marked for round ri
// when the stamp equals ri+1, so stamps never need clearing between
// rounds.
type slot struct {
	val  int64
	recv int32 // written by a receive this round
	read int32 // read by an already-issued send this round
}

// message is one send, or one posted receive, of the round just walked.
type message struct {
	peer int
	// ref is a send's source or a receive's destination.
	ref Ref
	// at is where a send's payload snapshot starts in rankWalk.payload.
	at int
}

// values names slot contents for the walk. Values are non-negative or
// one of the walk's sentinels (undef, or a domain's own); the walk only
// stores and compares them.
type values interface {
	// combine forms the value a Reduce of src into dst leaves at dst. It
	// also reports both operands' result blocks (-1 when not known) and
	// a rank whose contribution both operands already carry (-1 when
	// none); on a block mismatch the value is unused.
	combine(rank int, src, dst int64) (val int64, srcBlk, dstBlk, twice int)
	// resultBlock is the result block a reduction value contributes to,
	// or -1 when it is not known.
	resultBlock(val int64) int
	// checkRecv applies the domain's own content rule to a value written
	// into recv slot d of rank.
	checkRecv(rank, d int, val int64, where site) error
}

// rankWalk is one rank's symbolic machine and the per-round walk over
// its steps. The send and recv spaces are dense; scratch is dense too in
// the full verifier and sparse in a slice, which pays only for the
// scratch slots it touches.
type rankWalk struct {
	rank, p   int
	coll      Coll
	reduction bool
	op        string
	// dead marks failed ranks no step may address (nil: none).
	dead []bool
	vals values

	sendSize, recvSize int
	scratch            []int
	// dense reports a dense scratch layout; base[buf] is the index in
	// slots of space buf's first slot, for every dense space.
	dense  bool
	base   []int
	slots  []slot
	sparse map[int64]*slot
	arena  []slot
	// recvCount counts the writes into each recv slot: each must end at
	// exactly 1.
	recvCount []uint8
	// fromSeen/toSeen stamp the round's peers (the duplicate-peer
	// check); fromIdx[peer] indexes the round's receive from peer.
	fromSeen, toSeen, fromIdx []int32

	sends, recvs []message
	payload      []int64
}

// layout sizes the walk's spaces for a rank whose user spaces hold send
// and recv blocks, reusing earlier allocations, and resets every slot
// and stamp. Scratch is dense when dense is set.
func (w *rankWalk) layout(send, recv int, scratch []int, dense bool) {
	w.sendSize, w.recvSize, w.scratch, w.dense = send, recv, scratch, dense
	w.base = append(w.base[:0], 0, send)
	total := send + recv
	if dense {
		for _, sz := range scratch {
			w.base = append(w.base, total)
			total += sz
		}
	} else if w.sparse == nil {
		w.sparse = make(map[int64]*slot)
	} else {
		clear(w.sparse)
		w.arena = w.arena[:0]
	}
	w.slots = resize(w.slots, total)
	for i := range w.slots {
		w.slots[i] = slot{val: undef}
	}
	w.recvCount = resize(w.recvCount, recv)
	clear(w.recvCount)
	for _, s := range []*[]int32{&w.fromSeen, &w.toSeen, &w.fromIdx} {
		*s = resize(*s, w.p)
		clear(*s)
	}
}

// resize returns a slice of length n, reusing s's array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// at returns the slot at a validated position, creating a sparse scratch
// slot on first touch.
func (w *rankWalk) at(buf, off int) *slot {
	if buf < len(w.base) {
		return &w.slots[w.base[buf]+off]
	}
	return w.sparseAt(buf, off)
}

func (w *rankWalk) sparseAt(buf, off int) *slot {
	key := int64(buf)<<40 | int64(off)
	if s, ok := w.sparse[key]; ok {
		return s
	}
	// Slots live in fixed-capacity chunks, so pointers handed out stay
	// valid while later slots are created.
	if len(w.arena) == cap(w.arena) {
		w.arena = make([]slot, 0, 1024)
	}
	w.arena = append(w.arena, slot{val: undef})
	s := &w.arena[len(w.arena)-1]
	w.sparse[key] = s
	return s
}

// slotName is the number an error reports for a slot: its index in
// slots in a dense layout, its offset within its space otherwise.
func (w *rankWalk) slotName(buf, off int) int {
	if w.dense {
		return w.base[buf] + off
	}
	return off
}

// checkRef validates a buffer reference against the rank's spaces.
func (w *rankWalk) checkRef(ref Ref, where site) error {
	var size int
	switch {
	case ref.Buf == SpaceSend:
		size = w.sendSize
	case ref.Buf == SpaceRecv:
		size = w.recvSize
	case ref.Buf >= SpaceScratch && ref.Buf < SpaceScratch+len(w.scratch):
		size = w.scratch[ref.Buf-SpaceScratch]
	default:
		return fmt.Errorf("%s: unknown buffer space %d", where, ref.Buf)
	}
	if ref.N <= 0 {
		return fmt.Errorf("%s: non-positive length %d", where, ref.N)
	}
	if ref.Off < 0 || ref.Off+ref.N > size {
		return fmt.Errorf("%s: range %d+%d out of space %d (%d blocks)", where, ref.Off, ref.N, ref.Buf, size)
	}
	return nil
}

// isDead reports whether rank r was marked dead.
func (w *rankWalk) isDead(r int) bool { return w.dead != nil && w.dead[r] }

// round walks the rank's steps of round ri. Pass 1 posts the receives
// (their data lands at the round's wait, so same-round reads and
// overlapping writes are races); pass 2 runs copies, reduces and sends
// in step order, snapshotting each send's payload at its issue
// position. The round's messages are left in w.sends and w.recvs.
func (w *rankWalk) round(ri int, steps []Step) error {
	r, stamp := w.rank, int32(ri+1)
	w.sends, w.recvs, w.payload = w.sends[:0], w.recvs[:0], w.payload[:0]

	for si := range steps {
		step := &steps[si]
		if step.Kind != Recv && step.Kind != SendRecv {
			continue
		}
		where := stepSite(ri, r, si, step.Kind).dst()
		if err := w.checkRef(step.Dst, where); err != nil {
			return err
		}
		if step.Dst.Buf == SpaceSend {
			return fmt.Errorf("%s: schedules must not write the user send buffer", where)
		}
		if step.From < 0 || step.From >= w.p || step.From == r {
			return fmt.Errorf("sched: round %d rank %d step %d: receive source %d out of range", ri, r, si, step.From)
		}
		if w.isDead(step.From) {
			return fmt.Errorf("sched: round %d rank %d step %d: receives from dead rank %d", ri, r, si, step.From)
		}
		if w.fromSeen[step.From] == stamp {
			return fmt.Errorf("sched: round %d: two receives from %d at %d (per-round tags would be ambiguous)", ri, step.From, r)
		}
		w.fromSeen[step.From] = stamp
		w.fromIdx[step.From] = int32(len(w.recvs))
		for k := 0; k < step.Dst.N; k++ {
			s := w.at(step.Dst.Buf, step.Dst.Off+k)
			if s.recv == stamp {
				return fmt.Errorf("sched: round %d rank %d: two receives write slot %d in one round", ri, r, w.slotName(step.Dst.Buf, step.Dst.Off+k))
			}
			s.recv = stamp
		}
		w.recvs = append(w.recvs, message{peer: step.From, ref: step.Dst})
	}

	for si := range steps {
		step := &steps[si]
		where := stepSite(ri, r, si, step.Kind)
		switch step.Kind {
		case Copy, Reduce:
			if err := w.local(step, ri, where); err != nil {
				return err
			}
		case Send, SendRecv:
			if err := w.send(step, ri, where); err != nil {
				return err
			}
		case Recv:
			// Posted in pass 1.
		default:
			return fmt.Errorf("%s: unknown step kind %q", where, step.Kind)
		}
	}
	return nil
}

// local checks and executes a Copy or Reduce step.
func (w *rankWalk) local(step *Step, ri int, where site) error {
	src, dst, stamp := step.Src, step.Dst, int32(ri+1)
	if err := w.checkRef(src, where.src()); err != nil {
		return err
	}
	if err := w.checkRef(dst, where.dst()); err != nil {
		return err
	}
	if src.N != dst.N {
		return fmt.Errorf("%s: length mismatch src %d, dst %d", where, src.N, dst.N)
	}
	if dst.Buf == SpaceSend {
		return fmt.Errorf("%s: schedules must not write the user send buffer", where)
	}
	// Overlapping ranges are rejected outright: the slot-by-slot model
	// below and the executor's memmove semantics (comm.CopyData)
	// disagree on them, so a schedule relying on overlap would verify
	// against behavior the executor does not have. (For Reduce, overlap
	// would also mean combining a partial into itself.)
	if src.Buf == dst.Buf && src.Off < dst.Off+dst.N && dst.Off < src.Off+src.N {
		return fmt.Errorf("%s: src %v and dst %v overlap", where, src, dst)
	}
	reduce := step.Kind == Reduce
	if reduce {
		if !w.reduction {
			return fmt.Errorf("%s: reduce step in a %s schedule", where, w.coll)
		}
		if step.Op != w.op {
			return fmt.Errorf("%s: operator %q does not match the schedule's %q", where, step.Op, w.op)
		}
	}
	for k := 0; k < src.N; k++ {
		s, d := w.at(src.Buf, src.Off+k), w.at(dst.Buf, dst.Off+k)
		if s.recv == stamp {
			return fmt.Errorf("%s: reads slot %d received in the same round (received data is only available in later rounds)", where, w.slotName(src.Buf, src.Off+k))
		}
		if d.recv == stamp {
			return fmt.Errorf("%s: writes slot %d a same-round receive also writes", where, w.slotName(dst.Buf, dst.Off+k))
		}
		if d.read == stamp {
			return fmt.Errorf("%s: overwrites slot %d an earlier send of the round is transmitting", where, w.slotName(dst.Buf, dst.Off+k))
		}
		val := s.val
		if val == undef {
			return fmt.Errorf("%s: reads undefined data at slot %d", where, w.slotName(src.Buf, src.Off+k))
		}
		if reduce {
			if d.val == undef {
				return fmt.Errorf("%s: reduces into undefined data at slot %d", where, w.slotName(dst.Buf, dst.Off+k))
			}
			var sb, db, twice int
			val, sb, db, twice = w.vals.combine(w.rank, val, d.val)
			if sb >= 0 && db >= 0 && sb != db {
				return fmt.Errorf("%s: reduces a partial of block %d into a partial of block %d", where, sb, db)
			}
			if twice >= 0 {
				return fmt.Errorf("%s: contribution of rank %d to block %d would enter twice (double contribution)", where, twice, sb)
			}
		}
		if err := w.put(d, dst.Buf, dst.Off+k, val, where); err != nil {
			return err
		}
	}
	return nil
}

// send checks a Send (or a SendRecv's send half), stamps the slots it
// transmits and records the message with its payload snapshot.
func (w *rankWalk) send(step *Step, ri int, where site) error {
	src, stamp := step.Src, int32(ri+1)
	if err := w.checkRef(src, where.src()); err != nil {
		return err
	}
	if step.To < 0 || step.To >= w.p || step.To == w.rank {
		return fmt.Errorf("%s: send destination %d out of range", where, step.To)
	}
	if w.isDead(step.To) {
		return fmt.Errorf("%s: sends to dead rank %d", where, step.To)
	}
	if w.toSeen[step.To] == stamp {
		return fmt.Errorf("sched: round %d: two sends from %d to %d (per-round tags would be ambiguous)", ri, w.rank, step.To)
	}
	w.toSeen[step.To] = stamp
	at := len(w.payload)
	for k := 0; k < src.N; k++ {
		s := w.at(src.Buf, src.Off+k)
		if s.recv == stamp {
			return fmt.Errorf("%s: sends slot %d received in the same round", where, w.slotName(src.Buf, src.Off+k))
		}
		if s.val == undef {
			return fmt.Errorf("%s: sends undefined data at slot %d", where, w.slotName(src.Buf, src.Off+k))
		}
		s.read = stamp
		w.payload = append(w.payload, s.val)
	}
	w.sends = append(w.sends, message{peer: step.To, ref: src, at: at})
	return nil
}

// deliver lands a posted receive's data at the round's wait: vals[k]
// (or fill, when vals is nil) goes into the k-th slot of dst.
func (w *rankWalk) deliver(dst Ref, vals []int64, fill int64, where site) error {
	for k := 0; k < dst.N; k++ {
		val := fill
		if vals != nil {
			val = vals[k]
		}
		if err := w.put(w.at(dst.Buf, dst.Off+k), dst.Buf, dst.Off+k, val, where); err != nil {
			return err
		}
	}
	return nil
}

// put stores val into slot s at (buf, off), enforcing the exactly-once
// discipline and the content rules on the recv space.
func (w *rankWalk) put(s *slot, buf, off int, val int64, where site) error {
	if buf == SpaceRecv {
		w.recvCount[off]++
		if w.recvCount[off] > 1 {
			return fmt.Errorf("%s: recv block %d of rank %d written more than once (block delivered twice)", where, off, w.rank)
		}
		if w.reduction {
			want := w.rank // reduce-scatter: the single recv block is this rank's result
			if w.coll == CollAllreduce {
				want = off
			}
			if blk := w.vals.resultBlock(val); blk >= 0 && blk != want {
				return fmt.Errorf("%s: recv block %d of rank %d receives the result of block %d, want %d", where, off, w.rank, blk, want)
			}
		}
		if err := w.vals.checkRecv(w.rank, off, val, where); err != nil {
			return err
		}
	}
	s.val = val
	return nil
}

// final checks the delivery accounting once every round is walked: each
// recv slot written exactly once, except that in a repaired all-to-all
// the blocks of dead sources must stay undelivered.
func (w *rankWalk) final() error {
	r := w.rank
	for d, n := range w.recvCount {
		if w.coll == CollAlltoall && w.isDead(d) {
			if n != 0 {
				return fmt.Errorf("sched: rank %d delivers block (%d->%d) of dead rank %d", r, d, r, d)
			}
			continue
		}
		if n != 1 {
			switch {
			case w.reduction:
				return fmt.Errorf("sched: result block %d of rank %d never produced", d, r)
			case w.coll == CollAlltoall:
				return fmt.Errorf("sched: block (%d->%d) never delivered", d, r)
			default:
				return fmt.Errorf("sched: recv block %d of rank %d never delivered", d, r)
			}
		}
	}
	return nil
}

// checkHeader validates the header fields a Schedule and a RankProgram
// share: scratch declarations, the collective, and its operator label.
// what names the artifact in messages ("schedule", "rank program").
func checkHeader(coll Coll, op string, scratch []int, what string) error {
	for i, sz := range scratch {
		if sz <= 0 {
			return fmt.Errorf("sched: scratch space %d has non-positive size %d", i, sz)
		}
	}
	if !coll.valid() {
		return fmt.Errorf("sched: unknown collective %q", coll)
	}
	if coll.reduction() != (op != "") {
		if op == "" {
			return fmt.Errorf("sched: %s %s must declare its operator label", coll, what)
		}
		return fmt.Errorf("sched: operator label %q on a non-reduction %s %s", op, coll, what)
	}
	return nil
}

// checkCount rejects a negative per-pair block count.
func checkCount(n, src, dst int) error {
	if n < 0 {
		return fmt.Errorf("sched: negative count %d for pair %d->%d", n, src, dst)
	}
	return nil
}

// site names what a verifier check is about: a step (optionally its src
// or dst ref), a round's delivery at one rank, or one message. Checks
// pass it by value and format it (via String) only when they fail, so a
// successful verification pays no formatting per step.
type site struct {
	form        siteForm
	round, rank int
	// n is the step index of a step site and the receiving rank of a
	// message site.
	n    int
	kind Kind
	part string
}

type siteForm uint8

const (
	siteStep siteForm = iota
	siteDelivery
	siteMessage
)

func stepSite(round, rank, step int, kind Kind) site {
	return site{form: siteStep, round: round, rank: rank, n: step, kind: kind}
}

func deliverySite(round, rank int) site { return site{form: siteDelivery, round: round, rank: rank} }

func messageSite(round, from, to int) site {
	return site{form: siteMessage, round: round, rank: from, n: to}
}

// src and dst narrow a step site to one of its refs.
func (w site) src() site { w.part = " src"; return w }
func (w site) dst() site { w.part = " dst"; return w }

func (w site) String() string {
	switch w.form {
	case siteDelivery:
		return fmt.Sprintf("sched: round %d rank %d delivery", w.round, w.rank)
	case siteMessage:
		return fmt.Sprintf("sched: round %d message %d->%d", w.round, w.rank, w.n)
	}
	return fmt.Sprintf("sched: round %d rank %d step %d (%s)%s", w.round, w.rank, w.n, w.kind, w.part)
}
