package sim

import (
	"fmt"
	"math"
	"math/rand"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/topo"
)

// resource is a FIFO-served shared resource (a NUMA memory bus, an
// inter-socket link, a NIC port, a core's copy engine). nextFree is the
// virtual time the resource becomes idle; lastUser tracks the previous
// peer for the NIC interleaving penalty; busy accumulates service time for
// utilization diagnostics.
type resource struct {
	nextFree float64
	lastUser int
	busy     float64
}

// reserveHook observes every reservation (testing and model-calibration
// diagnostics only). It is carried per Network (ClusterConfig.debugReserve)
// rather than as a package global so parallel tests don't race on it.
type reserveHook func(r *resource, ready, start, dur float64)

// reserve books the resource for a transfer of the given duration starting
// no earlier than ready, and returns the finish time.
func (r *resource) reserve(ready, dur float64, hook reserveHook) float64 {
	start := ready
	if r.nextFree > start {
		start = r.nextFree
	}
	if hook != nil {
		hook(r, ready, start, dur)
	}
	r.nextFree = start + dur
	r.busy += dur
	return r.nextFree
}

// hop is one resource on a message path together with its service rate and
// per-message cost. Shared hops (memory buses, NIC ports, socket links) are
// reserved jointly for the transfer's bottleneck duration — modeling
// cut-through/pipelined hardware rather than store-and-forward, so a
// message does not pay every hop's serialization twice. Dedicated hops
// (the receiver core's copy engine) serialize after the shared stage.
type hop struct {
	res        *resource
	rate       float64
	perMsg     float64
	interleave float64 // fractional duration penalty when senders interleave
	dedicated  bool
	link       *flowLink // fabric link stage (flow-level contention model)
}

// Network simulates the cluster fabric: topology-aware paths over shared
// resources, MPI-style matching with posted/unexpected queues, and eager/
// rendezvous protocols. All methods are called from rank processes running
// under the engine's one-at-a-time discipline, so no locking is needed.
type Network struct {
	e       *Engine
	p       netmodel.Params
	mapping *topo.Mapping
	scale   float64 // overhead scale (vendor profile); 1.0 normally

	numaBus    [][]resource // [node][numaPerNode]
	socketLink []resource   // [node]
	nicOut     []resource   // [node]
	nicIn      []resource   // [node]
	cores      []resource   // [world rank] receive-side copy engine

	boxes []simMailbox // [world rank]

	// flow is the optional flow-level contention model (per-link FIFO
	// queues over a topo.Fabric); nil runs the analytic model alone.
	flow *flowState

	debugReserve reserveHook

	rng      *rand.Rand
	msgsSent uint64

	freeFlights []*flight // finished flights, reused with their hop slices
	flightSlab  []flight  // the unused tail of the current flight slab
	reqSlab     []simReq  // the unused tail of the current request slab
}

// NewNetwork builds the fabric for a mapping under the given model. seed
// fixes the noise stream; overheadScale scales software overheads (used by
// the system-MPI vendor profile; pass 1 otherwise). fabric, when non-empty,
// names a topo.Fabric kind and enables the flow-level contention model
// over the mapping's nodes; it errors when the model carries no
// FabricLinkBW.
func NewNetwork(e *Engine, p netmodel.Params, mapping *topo.Mapping, seed int64, overheadScale float64, fabric string) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if overheadScale <= 0 {
		return nil, fmt.Errorf("sim: overheadScale must be positive, got %g", overheadScale)
	}
	n := &Network{
		e: e, p: p, mapping: mapping, scale: overheadScale,
		rng: rand.New(rand.NewSource(seed)),
	}
	nodes := mapping.Nodes()
	if fabric != "" {
		fs, err := newFlowState(fabric, nodes, p.FabricLinkBW, p.FabricQueueBytes)
		if err != nil {
			return nil, err
		}
		n.flow = fs
	}
	n.numaBus = make([][]resource, nodes)
	for i := range n.numaBus {
		n.numaBus[i] = make([]resource, p.Node.NumaPerNode())
	}
	n.socketLink = make([]resource, nodes)
	n.nicOut = make([]resource, nodes)
	n.nicIn = make([]resource, nodes)
	n.cores = make([]resource, mapping.Size())
	n.boxes = make([]simMailbox, mapping.Size())
	return n, nil
}

// MessagesSent returns the count of point-to-point messages simulated.
func (n *Network) MessagesSent() uint64 { return n.msgsSent }

// PortReport summarizes NIC port usage for diagnostics: busy is total
// service time, span the time of the last booking's completion.
type PortReport struct {
	OutBusy, OutSpan float64
	InBusy, InSpan   float64
}

// Ports returns the per-node NIC port report.
func (n *Network) Ports() []PortReport {
	out := make([]PortReport, len(n.nicOut))
	for i := range out {
		out[i] = PortReport{
			OutBusy: n.nicOut[i].busy, OutSpan: n.nicOut[i].nextFree,
			InBusy: n.nicIn[i].busy, InSpan: n.nicIn[i].nextFree,
		}
	}
	return out
}

// noise returns a multiplicative lognormal factor (mean ~1) for overheads.
func (n *Network) noise() float64 {
	if n.p.NoiseSigma == 0 {
		return 1
	}
	s := n.p.NoiseSigma
	return math.Exp(n.rng.NormFloat64()*s - s*s/2)
}

// spike returns an additive rare OS-noise detour in seconds.
func (n *Network) spike() float64 {
	if n.p.SpikeProb == 0 || n.rng.Float64() >= n.p.SpikeProb {
		return 0
	}
	return n.rng.ExpFloat64() * n.p.SpikeMean
}

// overhead returns a noisy, scaled per-operation CPU cost.
func (n *Network) overhead(base float64) float64 {
	return base*n.scale*n.noise() + n.spike()
}

// copyTime returns the single-core copy duration for b bytes.
func (n *Network) copyTime(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / n.p.CopyBW * n.scale
}

// path returns the hop list from src to dst world ranks, plus the locality
// level. Intra-node paths end at the destination core's copy engine
// (shared-memory transfers are CPU-driven copies); inter-node paths use
// NIC DMA and stop at the destination NUMA bus.
func (n *Network) path(src, dst int, hops []hop) ([]hop, topo.Level) {
	m := n.mapping
	level := m.LevelBetween(src, dst)
	sNode, dNode := m.NodeOf(src), m.NodeOf(dst)
	sNuma := m.NumaOf(m.LocalRank(src))
	dNuma := m.NumaOf(m.LocalRank(dst))
	busRate, busMsg := n.p.NumaBW, n.p.BusMsgCost*n.scale
	hops = hops[:0]
	switch level {
	case topo.Self:
		// Local "transfer": only the core copy engine.
		hops = append(hops, hop{res: &n.cores[dst], rate: n.p.CopyBW, perMsg: 0, dedicated: true})
	case topo.IntraNuma:
		hops = append(hops,
			hop{res: &n.numaBus[sNode][sNuma], rate: busRate, perMsg: busMsg},
			hop{res: &n.cores[dst], rate: n.p.CopyBW, perMsg: 0, dedicated: true})
	case topo.IntraSocket:
		hops = append(hops,
			hop{res: &n.numaBus[sNode][sNuma], rate: busRate, perMsg: busMsg},
			hop{res: &n.numaBus[dNode][dNuma], rate: busRate, perMsg: busMsg},
			hop{res: &n.cores[dst], rate: n.p.CopyBW, perMsg: 0, dedicated: true})
	case topo.InterSocket:
		hops = append(hops,
			hop{res: &n.numaBus[sNode][sNuma], rate: busRate, perMsg: busMsg},
			hop{res: &n.socketLink[sNode], rate: n.p.SocketLinkBW, perMsg: busMsg},
			hop{res: &n.numaBus[dNode][dNuma], rate: busRate, perMsg: busMsg},
			hop{res: &n.cores[dst], rate: n.p.CopyBW, perMsg: 0, dedicated: true})
	case topo.InterNode:
		// The NIC ports are the binding inter-node resources (the memory
		// buses are 2-3x faster and never bind for wire traffic), so the
		// analytic path is just the two ports. With a fabric configured,
		// the route's links sit between them as cut-through stages: free
		// when idle, a queueing delay when shared (see flow.go).
		nicMsg := n.p.NICMsgCost * n.scale
		hops = append(hops,
			hop{res: &n.nicOut[sNode], rate: n.p.NICBW, perMsg: nicMsg, interleave: n.p.InterleavePenalty})
		if n.flow != nil {
			for _, id := range n.flow.routeLinks(sNode, dNode) {
				hops = append(hops, hop{link: &n.flow.links[id]})
			}
		}
		hops = append(hops,
			hop{res: &n.nicIn[dNode], rate: n.p.NICBW, perMsg: nicMsg, interleave: n.p.InterleavePenalty})
	}
	return hops, level
}

// flight is one message in transit through its path's stages: the
// record a stage event fires, standing in for per-message closures. It
// is taken from the Network's free list (or slab) when the transfer is
// set up and returned as soon as the payload has arrived, keeping its hop
// slice for the next message's path.
type flight struct {
	n    *Network
	hops []hop
	// next and t are the stage the pending event books and its requested
	// (unclamped) time.
	next int
	t    float64

	bytes int
	tag   int
	lat   float64 // wire latency added after the last stage
	// srcNode drives the NIC interleaving penalty, which tracks the
	// source *node*: a port drained by long same-source runs (node-aware
	// aggregation, aligned pairwise steps) streams at full rate, while
	// fine-grained exchanges that mix flows from many nodes pay the
	// congestion/reordering cost.
	srcNode int

	// Eager arrival: deliver into dst's mailbox.
	dst     int
	env     envelope
	payload []byte

	// Rendezvous: the sender's request completes when the first stage
	// clears, the receive when the payload arrives.
	rdv              bool
	sendReq, recvReq *simReq
	sendBuf, recvBuf comm.Buffer
}

// flightSlabSize is how many flights one slab allocation carves, and
// slabHops the hop capacity each starts with: enough for every analytic
// path (fabric routes grow their flight's slice once).
const (
	flightSlabSize = 64
	slabHops       = 4
)

// newFlight takes a flight off the free list (or carves one from the
// slab) for a message of the given size from src to dst world ranks,
// with its path filled in. tag attributes fabric-link congestion to the
// message's round (sched executor tagging).
func (n *Network) newFlight(src, dst, bytes, tag int) *flight {
	var f *flight
	if k := len(n.freeFlights); k > 0 {
		f = n.freeFlights[k-1]
		n.freeFlights = n.freeFlights[:k-1]
	} else {
		if len(n.flightSlab) == 0 {
			n.flightSlab = make([]flight, flightSlabSize)
			hops := make([]hop, flightSlabSize*slabHops)
			for i := range n.flightSlab {
				n.flightSlab[i] = flight{n: n, hops: hops[i*slabHops : i*slabHops : (i+1)*slabHops]}
			}
		}
		f = &n.flightSlab[0]
		n.flightSlab = n.flightSlab[1:]
	}
	hops, level := n.path(src, dst, f.hops)
	f.hops, f.lat, f.srcNode = hops, n.p.Latency(level), n.mapping.NodeOf(src)
	f.dst, f.bytes, f.tag = dst, bytes, tag
	return f
}

// release returns f to the free list, dropping its references to
// payloads, buffers and requests.
func (n *Network) release(f *flight) {
	*f = flight{n: n, hops: f.hops[:0]}
	n.freeFlights = append(n.freeFlights, f)
}

// fire is a flight's stage event.
func (f *flight) fire() { f.stage(f.next, f.t) }

// at queues the flight's stage i at virtual time t.
func (f *flight) at(i int, t float64) {
	f.next, f.t = i, t
	f.n.e.schedule(t, f)
}

// stage books the flight's hops from i on, starting at time t; stage 0
// starts the transfer and counts the message. The first stage is
// reserved immediately (t is the caller's current virtual time); every
// subsequent stage is reserved by an event fired when the payload clears
// the previous stage. Booking stages at their actual start times is
// essential: reserving future slots up front would let one far-future
// booking push a scalar FIFO's nextFree forward and leave the resource
// idle for every later (but earlier-in-time) booking — a head-of-line
// artifact, not network physics.
//
// A rendezvous flight's send request completes when the first
// (source-side) stage is clear — the sender's buffer lifetime. The
// flight arrives when the payload has fully arrived (last stage plus
// wire latency).
func (f *flight) stage(i int, t float64) {
	n := f.n
	if i == 0 {
		n.msgsSent++
	}
	for {
		h := &f.hops[i]
		if h.link != nil {
			// Cut-through fabric link: the head moves on the moment the
			// link starts serving it (zero added time when uncontended —
			// the NIC ports stay the serialization points), while the
			// link stays occupied for the payload's full serialization,
			// which is what queues and backpressures later flows.
			start, blocked, queued := h.link.admit(t, f.bytes)
			n.flow.note(f.tag, f.bytes, blocked, queued)
			i++
			if start > t {
				f.at(i, start)
				return
			}
			continue
		}
		dur := h.perMsg
		if f.bytes > 0 {
			d := float64(f.bytes) / h.rate
			if h.interleave > 0 && h.res.lastUser != f.srcNode {
				d *= 1 + h.interleave
			}
			dur += d
		}
		h.res.lastUser = f.srcNode
		finish := h.res.reserve(t, dur, n.debugReserve)
		if i == 0 && f.rdv {
			n.determine(f.sendReq, finish, nil)
		}
		if i == len(f.hops)-1 {
			f.arrive(finish + f.lat)
			return
		}
		f.at(i+1, finish)
		return
	}
}

// arrive completes the flight at the payload's arrival time and recycles
// it.
func (f *flight) arrive(arrival float64) {
	n := f.n
	if !f.rdv {
		dst, env, bytes, payload := f.dst, f.env, f.bytes, f.payload
		n.release(f)
		n.deliverEager(dst, env, bytes, payload, arrival)
		return
	}
	if !f.sendBuf.IsVirtual() && !f.recvBuf.IsVirtual() && f.bytes > 0 {
		copy(f.recvBuf.Bytes(), f.sendBuf.Bytes()[:f.bytes])
	}
	req := f.recvReq
	n.release(f)
	n.determine(req, arrival, nil)
}

// envelope identifies a message for matching.
type envelope struct {
	ctx int64
	src int // sender's communicator rank
	tag int
}

// simReq is a simulated request: completion time is "determined"
// arithmetically at match time; waiters park until all their requests are
// determined.
type simReq struct {
	determined bool
	t          float64
	err        error
	waiter     *Proc // the process parked in WaitAll on this request
}

// Pending reports whether the request's completion is not yet determined.
func (r *simReq) Pending() bool { return !r.determined }

// waiter is a process's WaitAll state (Proc.wait): how many of its
// requests are still undetermined, and the latest completion so far.
type waiter struct {
	remaining int
	tMax      float64
}

// reqSlabSize is how many requests one slab allocation carves.
const reqSlabSize = 256

// newReq carves a zeroed request from the Network's slab. A request is
// never reused: callers may hold it past completion, and a slab is freed
// once every request carved from it is unreachable.
func (n *Network) newReq() *simReq {
	if len(n.reqSlab) == 0 {
		n.reqSlab = make([]simReq, reqSlabSize)
	}
	r := &n.reqSlab[0]
	n.reqSlab = n.reqSlab[1:]
	return r
}

func (n *Network) determine(r *simReq, t float64, err error) {
	if r.determined {
		n.e.Fail(fmt.Errorf("sim: request determined twice"))
		return
	}
	r.determined = true
	r.t = t
	r.err = err
	if p := r.waiter; p != nil {
		r.waiter = nil
		w := &p.wait
		w.remaining--
		if t > w.tMax {
			w.tMax = t
		}
		if w.remaining == 0 {
			n.e.WakeAt(p, w.tMax)
		}
	}
}

// simMsg is a message in an unexpected queue: either a buffered eager
// payload or a rendezvous RTS waiting for its receive.
type simMsg struct {
	env     envelope
	bytes   int
	payload []byte // eager copy when the send buffer was real

	tArrive float64 // eager: payload arrival time

	rdv         bool
	tRTSArrive  float64
	senderReady float64
	sendReq     *simReq
	sendBuf     comm.Buffer
	srcWorld    int
	dstWorld    int
}

// simPosted is a receive waiting in a posted queue.
type simPosted struct {
	env    envelope
	buf    comm.Buffer
	req    *simReq
	tReady float64
	world  int // receiver world rank
}

// simMailbox holds one rank's matching queues (FIFO per envelope).
type simMailbox struct {
	unexpected []simMsg
	posted     []simPosted
}

// Isend begins a send on behalf of process p. srcRank is the sender's rank
// inside the communicator identified by ctx; srcW/dstW are world ranks.
func (n *Network) Isend(p *Proc, srcW, dstW int, ctx int64, srcRank, tag int, b comm.Buffer) *simReq {
	p.Sync()
	return n.isend(p, srcW, dstW, ctx, srcRank, tag, b)
}

// isend is Isend after the caller has already synchronized with global
// virtual time (combined operations like Sendrecv sync once for both
// halves: the two ops happen within an overhead of each other, and one
// park instead of two matters at tens of millions of messages).
func (n *Network) isend(p *Proc, srcW, dstW int, ctx int64, srcRank, tag int, b comm.Buffer) *simReq {
	p.Advance(n.overhead(n.p.SendOverhead))
	req := n.newReq()
	if b.Len() <= n.p.EagerMax {
		// Eager: the sender copies the payload into a bounce buffer and is
		// free as soon as that local copy finishes — it does NOT wait for
		// the wire. This decoupling is what lets eager pairwise steps
		// pipeline through the NIC instead of convoying. The message
		// becomes matchable at the receiver when the payload arrives.
		var payload []byte
		if !b.IsVirtual() && b.Len() > 0 {
			payload = make([]byte, b.Len())
			copy(payload, b.Bytes())
		}
		length := b.Len()
		f := n.newFlight(srcW, dstW, length, tag)
		f.env = envelope{ctx: ctx, src: srcRank, tag: tag}
		f.payload = payload
		n.determine(req, p.now+n.copyTime(length), nil)
		f.stage(0, p.now)
		return req
	}
	// Rendezvous: an RTS races ahead; the transfer is scheduled when the
	// matching receive exists (see beginRendezvous).
	level := n.mapping.LevelBetween(srcW, dstW)
	msg := simMsg{
		env:         envelope{ctx: ctx, src: srcRank, tag: tag},
		bytes:       b.Len(),
		rdv:         true,
		tRTSArrive:  p.now + n.p.Latency(level),
		senderReady: p.now,
		sendReq:     req,
		sendBuf:     b,
		srcWorld:    srcW,
		dstWorld:    dstW,
	}
	box := &n.boxes[dstW]
	if i := findPosted(box, msg.env); i >= 0 {
		post := takePosted(box, i)
		n.beginRendezvous(msg, post)
	} else {
		box.unexpected = append(box.unexpected, msg)
	}
	return req
}

// Irecv posts a receive for process p (world rank dstW) on communicator
// ctx from srcRank with the given tag.
func (n *Network) Irecv(p *Proc, dstW int, ctx int64, srcRank, tag int, b comm.Buffer) *simReq {
	p.Sync()
	return n.irecv(p, dstW, ctx, srcRank, tag, b)
}

// irecv is Irecv after the caller has synchronized with global time.
func (n *Network) irecv(p *Proc, dstW int, ctx int64, srcRank, tag int, b comm.Buffer) *simReq {
	box := &n.boxes[dstW]
	env := envelope{ctx: ctx, src: srcRank, tag: tag}
	// Queue search: scan the unexpected queue up to the match (or fully).
	idx := findUnexpected(box, env)
	scanned := len(box.unexpected)
	if idx >= 0 {
		scanned = idx + 1
	}
	p.Advance(n.overhead(n.p.RecvOverhead + n.p.MatchCost*float64(scanned)))
	req := n.newReq()
	if idx >= 0 {
		msg := takeUnexpected(box, idx)
		n.completeMatch(msg, simPosted{env: env, buf: b, req: req, tReady: p.now, world: dstW})
		return req
	}
	box.posted = append(box.posted, simPosted{env: env, buf: b, req: req, tReady: p.now, world: dstW})
	return req
}

// deliverEager matches an arriving eager message or buffers it.
func (n *Network) deliverEager(dstW int, env envelope, bytes int, payload []byte, arrival float64) {
	box := &n.boxes[dstW]
	msg := simMsg{env: env, bytes: bytes, payload: payload, tArrive: arrival, dstWorld: dstW}
	if i := findPosted(box, env); i >= 0 {
		post := takePosted(box, i)
		// Matching an arrival against a deep posted queue costs the
		// receiver's progress engine a scan; fold it into completion.
		scan := n.p.MatchCost * float64(i+1) * n.scale
		msg.tArrive += scan
		n.completeMatch(msg, post)
		return
	}
	box.unexpected = append(box.unexpected, msg)
}

// completeMatch finishes a matched (message, receive) pair.
func (n *Network) completeMatch(msg simMsg, post simPosted) {
	if msg.bytes > post.buf.Len() {
		if msg.rdv {
			n.determine(msg.sendReq, msg.senderReady, comm.ErrTruncate)
		}
		n.determine(post.req, post.tReady, comm.ErrTruncate)
		return
	}
	if msg.rdv {
		n.beginRendezvous(msg, post)
		return
	}
	// Eager: receive completes when the payload has arrived, the receive
	// is posted, and the copy out of the bounce buffer is done.
	t := msg.tArrive
	if post.tReady > t {
		t = post.tReady
	}
	t += n.copyTime(msg.bytes)
	if msg.payload != nil && !post.buf.IsVirtual() {
		copy(post.buf.Bytes(), msg.payload)
	}
	n.determine(post.req, t, nil)
}

// beginRendezvous runs the RTS/CTS handshake arithmetic and schedules the
// bulk transfer at its causally correct start time.
func (n *Network) beginRendezvous(msg simMsg, post simPosted) {
	level := n.mapping.LevelBetween(msg.srcWorld, msg.dstWorld)
	lat := n.p.Latency(level)
	// The receiver reacts once the RTS has arrived and the receive is
	// posted; the CTS flies back; the transfer starts when the CTS reaches
	// a sender whose data has been ready since senderReady.
	ctsDepart := msg.tRTSArrive
	if post.tReady > ctsDepart {
		ctsDepart = post.tReady
	}
	ctsArrive := ctsDepart + lat
	tStart := ctsArrive
	if msg.senderReady > tStart {
		tStart = msg.senderReady
	}
	f := n.newFlight(msg.srcWorld, msg.dstWorld, msg.bytes, msg.env.tag)
	f.rdv = true
	f.sendReq, f.recvReq = msg.sendReq, post.req
	f.sendBuf, f.recvBuf = msg.sendBuf, post.buf
	f.at(0, tStart)
}

// Sendrecv posts the receive and performs the send under a single global-
// time synchronization, then waits for both.
func (n *Network) Sendrecv(p *Proc, meW, dstW int, ctx int64, myRank, stag int, sb comm.Buffer, srcRank, rtag int, rb comm.Buffer) error {
	p.Sync()
	rreq := n.irecv(p, meW, ctx, srcRank, rtag, rb)
	sreq := n.isend(p, meW, dstW, ctx, myRank, stag, sb)
	return n.WaitAll(p, []*simReq{rreq, sreq})
}

// WaitAll blocks p until every request is determined, advancing its clock
// to the latest completion, and returns the first error.
func (n *Network) WaitAll(p *Proc, reqs []*simReq) error {
	tMax := p.now
	pending := 0
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if r.determined {
			if r.t > tMax {
				tMax = r.t
			}
		} else {
			pending++
		}
	}
	if pending > 0 {
		p.wait = waiter{remaining: pending, tMax: tMax}
		for _, r := range reqs {
			if r != nil && !r.determined {
				r.waiter = p
			}
		}
		p.Park("waitall")
	} else if tMax > p.now {
		p.now = tMax
	}
	for _, r := range reqs {
		if r != nil && r.err != nil {
			return r.err
		}
	}
	return nil
}

// Memcpy charges a single-core copy to p and moves real bytes.
func (n *Network) Memcpy(p *Proc, dst, src comm.Buffer) error {
	bytes, err := comm.CopyData(dst, src)
	if err != nil {
		return err
	}
	p.Advance((n.copyTime(bytes) + n.p.CopyBlockCost*n.scale) * n.noise())
	return nil
}

// ChargeCopy charges an aggregate repack (bytes moved in blocks separate
// block copies) to p's clock with a single noise draw.
func (n *Network) ChargeCopy(p *Proc, bytes, blocks int) error {
	if bytes < 0 || blocks < 0 {
		return fmt.Errorf("sim: ChargeCopy(%d, %d): negative argument", bytes, blocks)
	}
	p.Advance((n.copyTime(bytes) + n.p.CopyBlockCost*n.scale*float64(blocks)) * n.noise())
	return nil
}

func findPosted(box *simMailbox, env envelope) int {
	for i := range box.posted {
		if box.posted[i].env == env {
			return i
		}
	}
	return -1
}

func findUnexpected(box *simMailbox, env envelope) int {
	for i := range box.unexpected {
		if box.unexpected[i].env == env {
			return i
		}
	}
	return -1
}

func takePosted(box *simMailbox, i int) simPosted {
	p := box.posted[i]
	box.posted = append(box.posted[:i], box.posted[i+1:]...)
	return p
}

func takeUnexpected(box *simMailbox, i int) simMsg {
	m := box.unexpected[i]
	box.unexpected = append(box.unexpected[:i], box.unexpected[i+1:]...)
	return m
}
