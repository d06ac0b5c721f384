package sched

import (
	"strings"
	"testing"
)

// mustGen generates and returns a schedule or fails the test.
func mustGen(t *testing.T, name string, p int) *Schedule {
	t.Helper()
	s, err := Generate(name, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestVerifyRejectsCorruption corrupts a verified schedule in every way
// the verifier claims to catch and checks each is rejected with a
// diagnostic mentioning the failure.
func TestVerifyRejectsCorruption(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		corrupt func(s *Schedule)
		wantErr string
	}{
		{
			name: "dropped step",
			corrupt: func(s *Schedule) {
				// Remove rank 2's exchange in round 3: its partners' send
				// and receive both lose their match.
				s.Rounds[3].Steps[2] = nil
			},
			wantErr: "unmatched",
		},
		{
			name: "unpaired send",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0] = append(s.Rounds[1].Steps[0],
					Step{Kind: Send, To: 3, Src: sendRef(3, 1)})
			},
			wantErr: "unmatched send",
		},
		{
			name: "unpaired recv",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0] = append(s.Rounds[1].Steps[0],
					Step{Kind: Recv, From: 3, Dst: recvRef(3, 1)})
			},
			wantErr: "unmatched receive",
		},
		{
			name: "duplicated block delivery",
			corrupt: func(s *Schedule) {
				// An extra matched exchange in round 2 delivering block
				// (0->3) early: correct content, but round 3's regular
				// pairwise delivery then lands it a second time.
				rd := &s.Rounds[2]
				rd.Steps[0] = append(rd.Steps[0], Step{Kind: Send, To: 3, Src: sendRef(3, 1)})
				rd.Steps[3] = append(rd.Steps[3], Step{Kind: Recv, From: 0, Dst: recvRef(0, 1)})
			},
			wantErr: "more than once",
		},
		{
			name: "misrouted block",
			corrupt: func(s *Schedule) {
				// Point round 1's receive at the wrong recv slot: the slot
				// gets a block from the wrong source.
				st := &s.Rounds[1].Steps[0]
				for i := range *st {
					if (*st)[i].Kind == SendRecv {
						(*st)[i].Dst.Off = ((*st)[i].Dst.Off + 1) % s.Ranks
					}
				}
			},
			wantErr: "",
		},
		{
			name: "offset out of range",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0][0].Src.Off = s.Ranks
			},
			wantErr: "out of space",
		},
		{
			name: "length mismatch across the wire",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0][0].Src.N = 2
			},
			wantErr: "",
		},
		{
			name: "write into the user send buffer",
			corrupt: func(s *Schedule) {
				s.Rounds[0].Steps[0][0].Dst = sendRef(0, 1)
			},
			wantErr: "send buffer",
		},
		{
			name: "unknown step kind",
			corrupt: func(s *Schedule) {
				s.Rounds[0].Steps[0][0].Kind = Kind("warp")
			},
			wantErr: "unknown step kind",
		},
		{
			name: "reduce step in a routing schedule",
			corrupt: func(s *Schedule) {
				s.Rounds[0].Steps[0][0].Kind = Reduce
			},
			wantErr: "reduce step in a alltoall schedule",
		},
		{
			name: "peer out of range",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0][0].To = s.Ranks
			},
			wantErr: "out of range",
		},
		{
			name: "self send",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0][0].To = 0
			},
			wantErr: "",
		},
		{
			name: "unknown buffer space",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0][0].Src.Buf = 9
			},
			wantErr: "unknown buffer space",
		},
		{
			name: "undelivered block",
			corrupt: func(s *Schedule) {
				// Drop the whole last round: every rank misses the block
				// from its farthest partner.
				s.Rounds = s.Rounds[:len(s.Rounds)-1]
			},
			wantErr: "never delivered",
		},
		{
			name: "overlapping copy ranges",
			corrupt: func(s *Schedule) {
				// The symbolic model would execute this slot by slot while
				// the executor memmoves: the verifier must reject overlap
				// rather than certify behavior the executor doesn't have.
				s.Scratch = []int{3}
				s.Rounds[0].Steps[0] = append(s.Rounds[0].Steps[0],
					Step{Kind: Copy, Src: sendRef(0, 2), Dst: scratchRef(0, 0, 2)},
					Step{Kind: Copy, Src: scratchRef(0, 0, 2), Dst: scratchRef(0, 1, 2)})
			},
			wantErr: "overlap",
		},
		{
			name: "non-positive scratch",
			corrupt: func(s *Schedule) {
				s.Scratch = []int{0}
			},
			wantErr: "scratch",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := mustGen(t, "pairwise", 6)
			if err := Verify(s); err != nil {
				t.Fatalf("pristine schedule rejected: %v", err)
			}
			tc.corrupt(s)
			err := Verify(s)
			if err == nil {
				t.Fatalf("corrupted schedule (%s) verified", tc.name)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestVerifyRejectsSameRoundRaces builds the races the round discipline
// cannot tolerate by hand and checks the verifier names them.
func TestVerifyRejectsSameRoundRaces(t *testing.T) {
	t.Parallel()
	// Base: 2 ranks, scratch of 2 blocks, a valid exchange plus the
	// mutation under test.
	base := func() *Schedule {
		return &Schedule{
			Format: FormatVersion, Name: "hand", Ranks: 2, Scratch: []int{2},
			Rounds: []Round{{Steps: [][]Step{
				{
					selfCopy(0),
					{Kind: SendRecv, To: 1, Src: sendRef(1, 1), From: 1, Dst: recvRef(1, 1)},
				},
				{
					selfCopy(1),
					{Kind: SendRecv, To: 0, Src: sendRef(0, 1), From: 0, Dst: recvRef(0, 1)},
				},
			}}},
		}
	}
	if err := Verify(base()); err != nil {
		t.Fatalf("base schedule rejected: %v", err)
	}

	t.Run("copy reads same-round received data", func(t *testing.T) {
		t.Parallel()
		s := base()
		s.Rounds[0].Steps[0] = append(s.Rounds[0].Steps[0],
			Step{Kind: Copy, Src: recvRef(1, 1), Dst: scratchRef(0, 0, 1)})
		err := Verify(s)
		if err == nil || !strings.Contains(err.Error(), "received in the same round") {
			t.Fatalf("race not caught: %v", err)
		}
	})
	t.Run("copy overwrites same-round receive target", func(t *testing.T) {
		t.Parallel()
		s := base()
		// The self copy already writes recv[0]; make rank 0's receive
		// land on the same slot.
		s.Rounds[0].Steps[0][1].Dst = recvRef(0, 1)
		if err := Verify(s); err == nil {
			t.Fatal("overlapping copy/receive writes verified")
		}
	})
	t.Run("copy overwrites an issued send's buffer", func(t *testing.T) {
		t.Parallel()
		s := base()
		// Stage through scratch so the conflicting write is legal in
		// space terms: copy to scratch, send scratch, copy over scratch.
		s.Rounds[0].Steps[0] = []Step{
			selfCopy(0),
			{Kind: Copy, Src: sendRef(1, 1), Dst: scratchRef(0, 0, 1)},
			{Kind: SendRecv, To: 1, Src: scratchRef(0, 0, 1), From: 1, Dst: recvRef(1, 1)},
			{Kind: Copy, Src: sendRef(0, 1), Dst: scratchRef(0, 0, 1)},
		}
		err := Verify(s)
		if err == nil || !strings.Contains(err.Error(), "transmitting") {
			t.Fatalf("send-buffer overwrite not caught: %v", err)
		}
	})
	t.Run("copy reads undefined scratch", func(t *testing.T) {
		t.Parallel()
		s := base()
		s.Rounds[0].Steps[0] = append([]Step{
			{Kind: Copy, Src: scratchRef(0, 1, 1), Dst: scratchRef(0, 0, 1)},
		}, s.Rounds[0].Steps[0]...)
		err := Verify(s)
		if err == nil || !strings.Contains(err.Error(), "undefined") {
			t.Fatalf("undefined read not caught: %v", err)
		}
	})
	t.Run("two messages between one pair", func(t *testing.T) {
		t.Parallel()
		s := base()
		s.Rounds[0].Steps[0] = append(s.Rounds[0].Steps[0],
			Step{Kind: Send, To: 1, Src: sendRef(1, 1)})
		s.Rounds[0].Steps[1] = append(s.Rounds[0].Steps[1],
			Step{Kind: Recv, From: 0, Dst: scratchRef(0, 0, 1)})
		err := Verify(s)
		if err == nil || !strings.Contains(err.Error(), "two") {
			t.Fatalf("double message not caught: %v", err)
		}
	})
	t.Run("round with wrong rank fanout", func(t *testing.T) {
		t.Parallel()
		s := base()
		s.Rounds[0].Steps = s.Rounds[0].Steps[:1]
		if err := Verify(s); err == nil {
			t.Fatal("truncated round verified")
		}
	})
	t.Run("nil and empty", func(t *testing.T) {
		t.Parallel()
		if err := Verify(nil); err == nil {
			t.Fatal("nil schedule verified")
		}
		if err := Verify(&Schedule{Ranks: 2}); err == nil {
			t.Fatal("round-less schedule verified")
		}
	})
}

// TestVerifierSiteText pins the context prefix of verifier errors, which
// is formatted only on failure: each site form renders exactly the text
// the verifiers have always printed, and both verifiers report a bad ref
// under it.
func TestVerifierSiteText(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		got  site
		want string
	}{
		{stepSite(3, 17, 2, SendRecv), "sched: round 3 rank 17 step 2 (sendrecv)"},
		{stepSite(0, 1, 0, Copy).src(), "sched: round 0 rank 1 step 0 (copy) src"},
		{stepSite(5, 0, 9, Kind("bogus")).dst(), "sched: round 5 rank 0 step 9 (bogus) dst"},
		{deliverySite(4, 9), "sched: round 4 rank 9 delivery"},
		{messageSite(1, 5, 6), "sched: round 1 message 5->6"},
	} {
		if got := c.got.String(); got != c.want {
			t.Errorf("site renders %q, want %q", got, c.want)
		}
	}

	s := mustGen(t, "pairwise", 4)
	s.Rounds[0].Steps[2][0].Src.N = 99
	const want = "sched: round 0 rank 2 step 0 (copy) src: range 2+99 out of space 0 (4 blocks)"
	if err := Verify(s); err == nil || err.Error() != want {
		t.Errorf("Verify: %v, want %q", err, want)
	}
	rp, err := Slice(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRank(rp); err == nil || err.Error() != want {
		t.Errorf("VerifyRank: %v, want %q", err, want)
	}
}

// TestVerifyDiagnosticsDeterministic pins which fault Verify reports when
// a round holds several: pairing faults are reported in rank order, so
// the same bad schedule yields the same diagnostic on every call.
func TestVerifyDiagnosticsDeterministic(t *testing.T) {
	t.Parallel()
	s := mustGen(t, "pairwise", 8)
	s.Rounds[1].Steps[5] = append(s.Rounds[1].Steps[5], Step{Kind: Send, To: 2, Src: sendRef(2, 1)})
	s.Rounds[1].Steps[0] = append(s.Rounds[1].Steps[0], Step{Kind: Send, To: 3, Src: sendRef(3, 1)})
	const want = "sched: round 1: unmatched send 0->3 (no receive posted — the round discipline would deadlock)"
	for i := 0; i < 200; i++ {
		if err := Verify(s); err == nil || err.Error() != want {
			t.Fatalf("call %d: Verify: %v, want %q", i, err, want)
		}
	}
}
