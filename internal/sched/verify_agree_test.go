package sched

import (
	"fmt"
	"testing"
)

// agreeWorlds are the seed schedules FuzzVerifierAgree mutates: one small
// world per generator family and collective, alltoallv included.
var agreeWorlds = []struct {
	name string
	p    int
}{
	{"pairwise", 6},
	{"bruck", 6},
	{"torus", 8},
	{"hypercube", 8},
	{"rs-ring", 6},
	{"ar-hypercube", 8},
	{"v-pairwise", 5},
}

// agreeWorld compiles seed world i into a schedule whose step lists the
// caller may mutate freely.
func agreeWorld(i int) (*Schedule, error) {
	w := agreeWorlds[i]
	var s *Schedule
	var err error
	if w.name == "v-pairwise" {
		s, err = GenerateV("pairwise", vTestCounts(w.p))
	} else {
		s, err = Generate(w.name, w.p, nil)
	}
	if err != nil {
		return nil, err
	}
	for ri := range s.Rounds {
		for r, steps := range s.Rounds[ri].Steps {
			s.Rounds[ri].Steps[r] = append([]Step(nil), steps...)
		}
	}
	return s, nil
}

// mutateSchedule applies one mutation, chosen and placed by the five
// bytes of m, to s: swap two rounds of one rank, duplicate or drop a
// step, retarget a peer, shift a ref offset by one, or change a step's
// kind.
func mutateSchedule(s *Schedule, m []byte) {
	p, nr := s.Ranks, len(s.Rounds)
	r := int(m[1]) % p
	ri := int(m[2]) % nr
	steps := &s.Rounds[ri].Steps[r]
	pick := func() *Step {
		if len(*steps) == 0 {
			return nil
		}
		return &(*steps)[int(m[3])%len(*steps)]
	}
	delta := 1
	if m[4]&1 == 1 {
		delta = -1
	}
	switch m[0] % 9 {
	case 0: // swap two rounds of one rank
		rj := int(m[3]) % nr
		a, b := &s.Rounds[ri].Steps[r], &s.Rounds[rj].Steps[r]
		*a, *b = *b, *a
	case 1: // duplicate a step
		if st := pick(); st != nil {
			at := int(m[4]) % (len(*steps) + 1)
			*steps = append((*steps)[:at], append([]Step{*st}, (*steps)[at:]...)...)
		}
	case 2: // drop a step
		if len(*steps) > 0 {
			i := int(m[3]) % len(*steps)
			*steps = append((*steps)[:i], (*steps)[i+1:]...)
		}
	case 3: // retarget To
		if st := pick(); st != nil {
			st.To = int(m[4])%(p+2) - 1
		}
	case 4: // retarget From
		if st := pick(); st != nil {
			st.From = int(m[4])%(p+2) - 1
		}
	case 5: // shift Src
		if st := pick(); st != nil {
			st.Src.Off += delta
		}
	case 6: // shift Dst
		if st := pick(); st != nil {
			st.Dst.Off += delta
		}
	case 7, 8: // change the kind
		if st := pick(); st != nil {
			st.Kind = []Kind{Send, Recv, SendRecv, Copy, Reduce, "bogus"}[int(m[4])%6]
		}
	}
}

// streamSlices verifies every rank's slice of s through one
// StreamVerifier, reporting slicing failures as errors.
func streamSlices(s *Schedule) error {
	return streamPrograms(s.Ranks, func(r int) (*RankProgram, error) { return Slice(s, r) })
}

// checkVerifiersAgree runs both verifiers on one mutated world and fails
// on any disagreement the streamed verifier's weaker proof cannot
// explain: a world Verify accepts must stream cleanly, and a slice
// VerifyRank rejects must belong to a world Verify rejects.
func checkVerifiersAgree(t *testing.T, world byte, muts []byte) {
	s, err := agreeWorld(int(world) % len(agreeWorlds))
	if err != nil {
		t.Fatal(err)
	}
	for len(muts) >= 5 {
		mutateSchedule(s, muts[:5])
		muts = muts[5:]
	}
	full := Verify(s)
	if full == nil {
		if err := streamSlices(s); err != nil {
			t.Fatalf("Verify accepts the world but streaming its slices rejects it: %v", err)
		}
	}
	for r := 0; r < s.Ranks; r++ {
		rp, err := Slice(s, r)
		if err != nil {
			continue
		}
		if err := VerifyRank(rp); err != nil && full == nil {
			t.Fatalf("VerifyRank rejects rank %d (%v) but Verify accepts the world", r, err)
		}
	}
}

// FuzzVerifierAgree is the differential gate between the full symbolic
// verifier and the streamed per-slice one: it mutates small verified
// worlds of every generator family and checks that neither verifier
// panics and that the two verdicts are consistent.
//
//	go test ./internal/sched -run '^$' -fuzz FuzzVerifierAgree -fuzztime 30s
func FuzzVerifierAgree(f *testing.F) {
	for i := range agreeWorlds {
		f.Add(byte(i), []byte{})
		for op := byte(0); op < 9; op++ {
			f.Add(byte(i), []byte{op, 1, 2, 0, 1})
			f.Add(byte(i), []byte{op, 3, 1, 1, 2, op + 1, 0, 2, 1, 3})
		}
	}
	f.Fuzz(func(t *testing.T, world byte, muts []byte) {
		checkVerifiersAgree(t, world, muts)
	})
}

// TestVerifierAgreeMutations runs the differential check over every
// single mutation of a fixed placement grid, so the agreement property is
// exercised on every plain test run, not only under -fuzz.
func TestVerifierAgreeMutations(t *testing.T) {
	t.Parallel()
	for w := range agreeWorlds {
		t.Run(fmt.Sprintf("%s@%d", agreeWorlds[w].name, agreeWorlds[w].p), func(t *testing.T) {
			for op := byte(0); op < 9; op++ {
				for r := byte(0); r < 4; r++ {
					for x := byte(0); x < 6; x++ {
						checkVerifiersAgree(t, byte(w), []byte{op, r, r + x, x, x + r})
					}
				}
			}
		})
	}
}

// BenchmarkVerify times the two verifier entry points at their hot
// shapes: the full symbolic proof on torus@128 (the largest world that
// gets it) and VerifyRank on hypercube@256 rank 0 (a warm schedule
// service fetch).
func BenchmarkVerify(b *testing.B) {
	b.Run("full-torus128", func(b *testing.B) {
		s, err := Generate("torus", 128, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := Verify(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rank-hypercube256", func(b *testing.B) {
		rp, err := GenerateRank("hypercube", 256, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := VerifyRank(rp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
