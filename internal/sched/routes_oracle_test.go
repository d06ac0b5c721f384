package sched

import (
	"fmt"
	"math/bits"
	"sort"

	"alltoallx/internal/topo"
)

// The path-materializing route compiler: the test oracle for the
// closed-form rank slicers of routeslice.go. It walks every (s, d) path,
// buckets hops into per-round move lists, packs all blocks moving
// between one rank pair in one round into a single message, and emits
// the staging (a transit buffer indexed by block identity,
// double-buffered receive packing) and pack/unpack copies. It shares only
// the route functions with production code, so byte identity against
// GenerateRank is a real cross-check of the slicers' inverse routing.

// routeOracles maps each route-compiled generator to its oracle.
var routeOracles = map[string]func(p int, m *topo.Mapping) (*Schedule, error){
	"ring":      ringOracle,
	"torus":     torusOracle,
	"hypercube": hypercubeOracle,
}

// compileRoutes builds the schedule for p ranks where route(s, d) returns
// the rank path s = v0, v1, ..., vk = d the block (s, d) travels.
func compileRoutes(name string, p int, route func(s, d int) []int) (*Schedule, error) {
	if p == 1 {
		return Generate("pairwise", 1, nil)
	}
	// Scratch layout: 0 = transit (slot s*p+d holds block (s,d) between
	// hops), 1 = pack-send staging, 2/3 = alternating pack-recv staging.
	const (
		transit = 0
		packS   = 1
		packA   = 2
	)

	// move[t][from][to] lists the blocks hopping from->to in round t.
	type pair struct{ from, to int }
	var moves []map[pair][]int32 // per round
	maxHops := 0
	for s := 0; s < p; s++ {
		for d := 0; d < p; d++ {
			if s == d {
				continue
			}
			path := route(s, d)
			if len(path) < 2 || path[0] != s || path[len(path)-1] != d {
				return nil, fmt.Errorf("sched: %s route %d->%d is invalid: %v", name, s, d, path)
			}
			if hops := len(path) - 1; hops > maxHops {
				maxHops = hops
			}
			for h := 0; h+1 < len(path); h++ {
				x, y := path[h], path[h+1]
				if x < 0 || x >= p || y < 0 || y >= p || x == y {
					return nil, fmt.Errorf("sched: %s route %d->%d has invalid hop %d->%d", name, s, d, x, y)
				}
				for len(moves) <= h {
					moves = append(moves, make(map[pair][]int32))
				}
				moves[h][pair{x, y}] = append(moves[h][pair{x, y}], int32(s*p+d))
			}
		}
	}

	// Per (round, rank): peers and packed block lists, in deterministic
	// order, plus the staging sizes.
	type message struct {
		peer   int
		blocks []int32
	}
	outs := make([][][]message, maxHops) // [t][rank] -> sends
	ins := make([][][]message, maxHops)  // [t][rank] -> recvs
	maxPack := 1
	for t := 0; t < maxHops; t++ {
		outs[t] = make([][]message, p)
		ins[t] = make([][]message, p)
		for pr, blocks := range moves[t] {
			sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
			outs[t][pr.from] = append(outs[t][pr.from], message{peer: pr.to, blocks: blocks})
			ins[t][pr.to] = append(ins[t][pr.to], message{peer: pr.from, blocks: blocks})
		}
		for r := 0; r < p; r++ {
			sort.Slice(outs[t][r], func(i, j int) bool { return outs[t][r][i].peer < outs[t][r][j].peer })
			sort.Slice(ins[t][r], func(i, j int) bool { return ins[t][r][i].peer < ins[t][r][j].peer })
			for _, dir := range [2][]message{outs[t][r], ins[t][r]} {
				n := 0
				for _, m := range dir {
					n += len(m.blocks)
				}
				if n > maxPack {
					maxPack = n
				}
			}
		}
	}

	s := &Schedule{
		Format: FormatVersion, Name: name, Ranks: p,
		Scratch: []int{p * p, maxPack, maxPack, maxPack},
	}

	// unpackSteps restores round t's arrivals at rank r from its pack-recv
	// buffer: home blocks land in the recv buffer, in-transit blocks in
	// the transit slot s*p+d.
	unpackSteps := func(t, r int) []Step {
		buf := packA + t%2
		var steps []Step
		off := 0
		for _, m := range ins[t][r] {
			for _, b := range m.blocks {
				src, dst := int(b)/p, int(b)%p
				var to Ref
				if dst == r {
					to = recvRef(src, 1)
				} else {
					to = scratchRef(transit, int(b), 1)
				}
				steps = append(steps, Step{Kind: Copy, Src: scratchRef(buf, off, 1), Dst: to})
				off++
			}
		}
		return steps
	}

	for t := 0; t < maxHops; t++ {
		rd := Round{Steps: make([][]Step, p)}
		for r := 0; r < p; r++ {
			var steps []Step
			if t == 0 {
				steps = append(steps, selfCopy(r))
			} else {
				steps = append(steps, unpackSteps(t-1, r)...)
			}
			// Pack departures: a block leaving its source (t == 0 along
			// its path, which by construction is round 0) is read from
			// the send buffer; a forwarded block from transit.
			off := 0
			var sends []Step
			for _, m := range outs[t][r] {
				start := off
				for _, b := range m.blocks {
					src, dst := int(b)/p, int(b)%p
					var from Ref
					if src == r {
						from = sendRef(dst, 1)
					} else {
						from = scratchRef(transit, int(b), 1)
					}
					steps = append(steps, Step{Kind: Copy, Src: from, Dst: scratchRef(packS, off, 1)})
					off++
				}
				sends = append(sends, Step{Kind: Send, To: m.peer, Src: scratchRef(packS, start, off-start)})
			}
			off = 0
			for _, m := range ins[t][r] {
				steps = append(steps, Step{Kind: Recv, From: m.peer, Dst: scratchRef(packA+t%2, off, len(m.blocks))})
				off += len(m.blocks)
			}
			steps = append(steps, sends...)
			rd.Steps[r] = steps
		}
		s.Rounds = append(s.Rounds, rd)
	}

	// Final copies-only round: unpack the last exchanges (all arrivals
	// are home — the last hop of every path ends at its destination).
	fin := Round{Steps: make([][]Step, p)}
	for r := 0; r < p; r++ {
		fin.Steps[r] = unpackSteps(maxHops-1, r)
	}
	s.Rounds = append(s.Rounds, fin)
	return s, nil
}

// ringOracle compiles the direct-connect ring all-to-all: every block travels
// the shortest way around a bidirectional ring, one hop per round, and
// co-moving blocks share one message per link per round. Per-rank wire
// volume is Theta(p^2/8) blocks — the ring's bisection cost — against the
// direct exchange's p-1 single-block messages; the trade is message count
// (2 per rank per round) for volume, exactly the schedule family Basu et
// al. tune for direct-connect fabrics.
func ringOracle(p int, _ *topo.Mapping) (*Schedule, error) {
	return compileRoutes("ring", p, func(s, d int) []int { return ringPath(s, d, p) })
}

// torusOracle compiles the 2D-torus all-to-all: ranks form a rows x cols torus
// (the node x ppn grid when the topology is known, else the most-square
// factorization), and every block first rides the row ring to its
// destination column, then the column ring to its destination row — both
// shortest-direction, one hop per round, with per-link message packing.
func torusOracle(p int, m *topo.Mapping) (*Schedule, error) {
	rows, cols := torusShape(p, m)
	name := fmt.Sprintf("torus%dx%d", rows, cols)
	return compileRoutes(name, p, func(s, d int) []int { return torusRoute(rows, cols, s, d) })
}

// hypercubeOracle compiles the multiport hypercube all-to-all (p must be a
// power of two): every block fixes the differing address bits of its
// (source, destination) pair one per round, scanning the k = log2(p)
// dimensions cyclically from a source-dependent start bit. Staggering the
// start bit spreads each round's traffic across all k links of every rank
// — the multiport schedule — instead of serializing rounds onto one
// dimension as the single-port (Bruck-style) exchange does.
func hypercubeOracle(p int, _ *topo.Mapping) (*Schedule, error) {
	if p&(p-1) != 0 {
		return nil, fmt.Errorf("sched: hypercube needs a power-of-two rank count, got %d", p)
	}
	if p == 1 {
		return Generate("pairwise", 1, nil)
	}
	k := bits.Len(uint(p)) - 1
	return compileRoutes("hypercube", p, func(s, d int) []int { return hypercubeRoute(k, s, d) })
}
