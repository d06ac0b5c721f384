package sched

import "alltoallx/internal/topo"

// Block routes of the direct-connect families, the Basu et al.
// construction for direct-connect topologies: every block (s, d) is
// assigned a multi-hop path through the topology, and hop h of every path
// executes in round h. The rank slicers (routeslice.go) invert these
// rules in closed form; repair (repair.go) walks the paths directly to
// find the blocks a dead rank strands.

// ringPath returns the shortest-direction ring path from s to d over p
// ranks (ties at p/2 go forward).
func ringPath(s, d, p int) []int {
	fwd := (d - s + p) % p
	step := 1
	hops := fwd
	if fwd > p-fwd {
		step, hops = -1, p-fwd
	}
	path := make([]int, 0, hops+1)
	x := s
	path = append(path, x)
	for i := 0; i < hops; i++ {
		x = (x + step + p) % p
		path = append(path, x)
	}
	return path
}

// torusShape picks the 2D decomposition: the world topology's nodes x ppn
// when it matches the rank count, otherwise the most-square
// factorization.
func torusShape(p int, m *topo.Mapping) (rows, cols int) {
	if m != nil && m.Nodes()*m.PPN() == p {
		return m.Nodes(), m.PPN()
	}
	rows = 1
	for f := 1; f*f <= p; f++ {
		if p%f == 0 {
			rows = f
		}
	}
	return rows, p / rows
}

// torusRoute is the torus block route: ride the row ring to the
// destination column, then the column ring to the destination row, both
// shortest-direction.
func torusRoute(rows, cols, s, d int) []int {
	si, sj := s/cols, s%cols
	di, dj := d/cols, d%cols
	path := []int{s}
	for _, j := range ringPath(sj, dj, cols)[1:] {
		path = append(path, si*cols+j)
	}
	for _, i := range ringPath(si, di, rows)[1:] {
		path = append(path, i*cols+dj)
	}
	return path
}

// hypercubeRoute is the multiport hypercube block route: fix the differing
// bits of (s, d) one per round, scanning dimensions cyclically from the
// source-dependent start bit (s+t)%k.
func hypercubeRoute(k, s, d int) []int {
	path := []int{s}
	x := s
	for t := 0; t < k; t++ {
		b := (s + t) % k
		if (x^d)&(1<<b) != 0 {
			x ^= 1 << b
			path = append(path, x)
		}
	}
	return path
}
