package sched

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestRefJSONRoundTrip(t *testing.T) {
	t.Parallel()
	s, err := Generate("pairwise", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", s, got)
	}
	if err := Verify(got); err != nil {
		t.Fatalf("decoded schedule fails verification: %v", err)
	}
}

func TestDecodeRejectsWrongFormat(t *testing.T) {
	t.Parallel()
	if _, err := Decode(strings.NewReader(`{"format":99,"name":"x","ranks":2,"rounds":[]}`)); err == nil {
		t.Fatal("format 99 accepted")
	}
	if _, err := Decode(strings.NewReader(`{"format":1,"name":"x","ranks":0,"rounds":[]}`)); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	t.Parallel()
	s, err := Generate("ring", 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring6.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatal("save/load mismatch")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestStatsAndRoundMatrix(t *testing.T) {
	t.Parallel()
	p := 5
	s, err := Generate("pairwise", p, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Rounds != p {
		t.Errorf("rounds = %d, want %d", st.Rounds, p)
	}
	if want := p * (p - 1); st.Messages != want {
		t.Errorf("messages = %d, want %d", st.Messages, want)
	}
	if want := p * (p - 1); st.WireBlocks != want {
		t.Errorf("wire blocks = %d, want %d", st.WireBlocks, want)
	}
	if st.Copies != p {
		t.Errorf("copies = %d, want %d (one self copy per rank)", st.Copies, p)
	}
	// Round 1 of pairwise: every rank sends exactly one block to r+1.
	m := s.RoundMatrix(1)
	for r := 0; r < p; r++ {
		for d := 0; d < p; d++ {
			want := 0
			if d == (r+1)%p {
				want = 1
			}
			if m[r][d] != want {
				t.Fatalf("round 1 matrix[%d][%d] = %d, want %d", r, d, m[r][d], want)
			}
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	t.Parallel()
	if _, err := Generate("no-such", 4, nil); err == nil {
		t.Fatal("unknown generator accepted")
	}
	if _, err := Generate("ring", 0, nil); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestHypercubeNeedsPowerOfTwo(t *testing.T) {
	t.Parallel()
	if _, err := Generate("hypercube", 6, nil); err == nil {
		t.Fatal("hypercube accepted 6 ranks")
	}
	if _, err := Generate("hypercube", 8, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	for _, name := range Generators() {
		p := 8
		a, err := Generate(name, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Generate(name, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations differ", name)
		}
	}
}
