// Alltoallv schedule generation: the variable-count variants of the
// classic exchange generators. An alltoallv schedule is parameterized by
// its per-pair count matrix, so (unlike the fixed-shape generators in
// the registry) it is compiled per counts via GenerateV rather than by
// name through Generate. Buffers use the canonical packed layout: the
// send space is packed by destination (row prefix sums of the counts
// matrix), the recv space by source (column prefix sums) — the layout
// core's sched-backed alltoallv algorithms pack user displacements into.
package sched

import (
	"fmt"
	"sort"
)

// vGenerators maps the alltoallv generator names to per-rank step
// builders: given the counts matrix and a rank, emit that rank's rounds.
var vGenerators = map[string]func(counts [][]int, r int) [][]Step{
	"direct":   directVRounds,
	"pairwise": pairwiseVRounds,
}

// VGenerators returns the alltoallv generator names, sorted.
func VGenerators() []string {
	names := make([]string, 0, len(vGenerators))
	for n := range vGenerators {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GenerateV compiles the named alltoallv schedule for the given count
// matrix: counts[s][d] blocks flow from rank s to rank d (zero-count
// pairs exchange nothing). The schedule's name records the generator as
// "v-<name>"; Schedule.Counts keeps a copy of the matrix.
func GenerateV(name string, counts [][]int) (*Schedule, error) {
	gen, ok := vGenerators[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown alltoallv generator %q (have %v)", name, VGenerators())
	}
	p := len(counts)
	if err := checkRanks(p); err != nil {
		return nil, err
	}
	if err := checkCounts(CollAlltoallv, counts, p); err != nil {
		return nil, err
	}
	cp := make([][]int, p)
	for s, row := range counts {
		cp[s] = append([]int(nil), row...)
	}
	perRank := make([][][]Step, p)
	for r := range perRank {
		perRank[r] = gen(cp, r)
	}
	sc := &Schedule{Format: FormatVersion, Name: "v-" + name, Ranks: p,
		Coll: CollAlltoallv, Counts: cp, Rounds: stackRounds(perRank)}
	return sc, nil
}

// vSendRef is the packed send-space ref of the r->d message (rank r's
// row prefix sum), or a zero-length ref when the count is zero.
func vSendRef(counts [][]int, r, d int) Ref {
	off := 0
	for dd := 0; dd < d; dd++ {
		off += counts[r][dd]
	}
	return sendRef(off, counts[r][d])
}

// vRecvRef is the packed recv-space ref of the s->r message (rank r's
// column prefix sum), or a zero-length ref when the count is zero.
func vRecvRef(counts [][]int, r, s int) Ref {
	off := 0
	for ss := 0; ss < s; ss++ {
		off += counts[ss][r]
	}
	return recvRef(off, counts[s][r])
}

// directVRounds is rank r's single round of the spread direct alltoallv:
// the self copy, then all receives, then all sends, in the same spread
// order as the fixed-count generator, skipping zero-count pairs.
func directVRounds(counts [][]int, r int) [][]Step {
	p := len(counts)
	var steps []Step
	if counts[r][r] > 0 {
		steps = append(steps, Step{Kind: Copy, Src: vSendRef(counts, r, r), Dst: vRecvRef(counts, r, r)})
	}
	for i := 1; i < p; i++ {
		from := (r - i + p) % p
		if counts[from][r] > 0 {
			steps = append(steps, Step{Kind: Recv, From: from, Dst: vRecvRef(counts, r, from)})
		}
	}
	for i := 1; i < p; i++ {
		to := (r + i) % p
		if counts[r][to] > 0 {
			steps = append(steps, Step{Kind: Send, To: to, Src: vSendRef(counts, r, to)})
		}
	}
	return [][]Step{steps}
}

// pairwiseVRounds is rank r's pairwise alltoallv: the self-copy round,
// then p-1 rounds pairing disjoint partners (send to r+i, receive from
// r-i), degrading each exchange to a lone send or receive — or nothing —
// where counts are zero.
func pairwiseVRounds(counts [][]int, r int) [][]Step {
	p := len(counts)
	rounds := make([][]Step, 0, p)
	var self []Step
	if counts[r][r] > 0 {
		self = []Step{{Kind: Copy, Src: vSendRef(counts, r, r), Dst: vRecvRef(counts, r, r)}}
	}
	rounds = append(rounds, self)
	for i := 1; i < p; i++ {
		to := (r + i) % p
		from := (r - i + p) % p
		ns, nr := counts[r][to], counts[from][r]
		var steps []Step
		switch {
		case ns > 0 && nr > 0:
			steps = []Step{{Kind: SendRecv, To: to, Src: vSendRef(counts, r, to),
				From: from, Dst: vRecvRef(counts, r, from)}}
		case ns > 0:
			steps = []Step{{Kind: Send, To: to, Src: vSendRef(counts, r, to)}}
		case nr > 0:
			steps = []Step{{Kind: Recv, From: from, Dst: vRecvRef(counts, r, from)}}
		}
		rounds = append(rounds, steps)
	}
	return rounds
}
