// Rank-sliced schedule compilation. A RankProgram is the slice of a
// Schedule that one rank actually executes: its step list of every round,
// plus the world-level facts (rank count, scratch declarations) the
// executor and verifier need. GenerateRank compiles a rank's program
// directly — O(slice) memory instead of the whole world's O(p^2) — so
// schedule-backed algorithms scale to worlds where materializing (or
// symbolically verifying) the assembled schedule is out of the question.
//
// GenerateRank is the only compiler: Generate assembles the whole world
// from its rank programs, so Slice(Generate(...), rank) is GenerateRank's
// output by construction. The route-compiled families (ring, torus,
// hypercube) use closed-form inverse-routing slicers (routeslice.go);
// property tests pin them byte-identical to an independent
// path-materializing compiler kept as a test oracle.

package sched

import (
	"errors"
	"fmt"
	"os"

	"alltoallx/internal/artifact"
	"alltoallx/internal/topo"
)

// RankProgram is one rank's compiled schedule: Rounds[ri] is this rank's
// step list in round ri (step semantics and the round discipline are
// exactly those of Schedule). Scratch declares the same per-rank scratch
// spaces the whole-world schedule would; Ranks is the world size the
// program is compiled for.
type RankProgram struct {
	// Format is the IR format version (FormatVersion).
	Format int `json:"format"`
	// Name labels the originating schedule (generator name).
	Name string `json:"name"`
	// Ranks is the world size the program is compiled for.
	Ranks int `json:"ranks"`
	// Rank is the rank this program belongs to.
	Rank int `json:"rank"`
	// Coll is the collective the program implements; empty means
	// CollAlltoall (the version-1 reading). Use Collective() to read it.
	Coll Coll `json:"coll,omitempty"`
	// Op is the reduction-operator label (Schedule.Op).
	Op string `json:"op,omitempty"`
	// VSend/VRecv are this rank's alltoallv count row and column:
	// VSend[d] blocks go to rank d, VRecv[s] blocks arrive from rank s.
	// Present only for CollAlltoallv — the slice of Schedule.Counts a
	// rank needs (O(p), never the O(p^2) matrix).
	VSend []int `json:"vsend,omitempty"`
	VRecv []int `json:"vrecv,omitempty"`
	// Scratch declares scratch spaces, identically to Schedule.Scratch.
	Scratch []int `json:"scratch,omitempty"`
	// Rounds[ri] is this rank's steps in round ri.
	Rounds [][]Step `json:"rounds"`
}

// Collective returns the program's collective kind, reading the empty
// (version-1) value as CollAlltoall.
func (rp *RankProgram) Collective() Coll {
	if rp.Coll == "" {
		return CollAlltoall
	}
	return rp.Coll
}

// Slice extracts rank's program from an assembled schedule. The step
// lists are shared with the schedule, not copied: schedules are immutable
// after generation.
func Slice(s *Schedule, rank int) (*RankProgram, error) {
	if s == nil {
		return nil, errors.New("sched: cannot slice a nil schedule")
	}
	if rank < 0 || rank >= s.Ranks {
		return nil, fmt.Errorf("sched: rank %d out of range for a %d-rank schedule", rank, s.Ranks)
	}
	rp := &RankProgram{Format: s.Format, Name: s.Name, Ranks: s.Ranks, Rank: rank,
		Coll: s.Coll, Op: s.Op, Scratch: s.Scratch}
	if s.Collective() == CollAlltoallv {
		rp.VSend = countsRow(s.Counts, rank)
		rp.VRecv = countsCol(s.Counts, rank)
	}
	for ri := range s.Rounds {
		if rank >= len(s.Rounds[ri].Steps) {
			return nil, fmt.Errorf("sched: round %d has only %d step lists, cannot slice rank %d", ri, len(s.Rounds[ri].Steps), rank)
		}
		rp.Rounds = append(rp.Rounds, s.Rounds[ri].Steps[rank])
	}
	return rp, nil
}

// Stats computes the program's summary counters: the same fields as
// Schedule.Stats restricted to this rank's steps (Messages counts this
// rank's sends).
func (rp *RankProgram) Stats() Stats {
	st := Stats{Rounds: len(rp.Rounds)}
	for _, sz := range rp.Scratch {
		st.ScratchBlocks += sz
	}
	for _, steps := range rp.Rounds {
		msgs := 0
		for _, step := range steps {
			switch step.Kind {
			case Send, SendRecv:
				msgs++
				st.WireBlocks += step.Src.N
			case Copy:
				st.Copies++
				st.CopyBlocks += step.Src.N
			case Reduce:
				st.Reduces++
				st.ReduceBlocks += step.Src.N
			}
		}
		st.Messages += msgs
		if msgs > st.MaxRoundMessages {
			st.MaxRoundMessages = msgs
		}
	}
	return st
}

// Steps returns the total step count of the program (the quantity cache
// byte accounting is based on).
func (rp *RankProgram) Steps() int {
	n := 0
	for _, steps := range rp.Rounds {
		n += len(steps)
	}
	return n
}

// stepBytes approximates the in-memory footprint of one Step (kind
// header, peers, two refs, slice overhead amortized).
const stepBytes = 96

// MemBytes estimates the program's in-memory footprint, for cache byte
// accounting.
func (rp *RankProgram) MemBytes() int64 {
	return int64(rp.Steps())*stepBytes + int64(len(rp.Rounds))*24 +
		int64(len(rp.Scratch)+len(rp.VSend)+len(rp.VRecv))*8 + 128
}

// Save writes the rank program to path atomically (the shared artifact
// discipline).
func (rp *RankProgram) Save(path string) error {
	return artifact.Save(path, "sched: saving rank program", rp.Encode)
}

// rankGenerator compiles one rank's program directly.
type rankGenerator func(p, rank int, m *topo.Mapping) (*RankProgram, error)

// GenerateRank compiles the named schedule's slice for one rank of a
// p-rank world (m may be nil). The result is
// Slice(Generate(name, p, m), rank) but costs O(slice): O(p) for
// direct/pairwise, O(p log p) for bruck, and O(blocks routed through the
// rank) for the route-compiled families — never O(p^2) memory.
func GenerateRank(name string, p, rank int, m *topo.Mapping) (*RankProgram, error) {
	e, err := lookupGen(name, p)
	if err != nil {
		return nil, err
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("sched: rank %d out of range 0..%d", rank, p-1)
	}
	return e.rank(p, rank, m)
}

// LoadRank reads the rank program at path (DecodeRank semantics:
// format-checked, not verified).
func LoadRank(path string) (*RankProgram, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sched: loading rank program: %w", err)
	}
	defer f.Close()
	rp, err := DecodeRank(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rp, nil
}
