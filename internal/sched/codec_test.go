package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// rankProgramJSON is RankProgram stripped of its methods: encoding/json
// sees only the struct tags and encodes and decodes it by reflection.
// That reflection codec defines the wire format; it is the oracle the
// hand-written codec must reproduce byte for byte.
type rankProgramJSON RankProgram

// encodeRankJSON is the reference encoding of rp.
func encodeRankJSON(rp *RankProgram) ([]byte, error) {
	out := rankProgramJSON(*rp)
	out.Format = FormatVersion
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(&out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeRankJSON is the reference decoding of b, with DecodeRank's
// format and rank checks.
func decodeRankJSON(b []byte) (*RankProgram, error) {
	var out rankProgramJSON
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&out); err != nil {
		return nil, err
	}
	rp := RankProgram(out)
	if !formatReadable(rp.Format) {
		return nil, fmt.Errorf("format %d", rp.Format)
	}
	if rp.Ranks <= 0 || rp.Rank < 0 || rp.Rank >= rp.Ranks {
		return nil, fmt.Errorf("rank %d of %d", rp.Rank, rp.Ranks)
	}
	return &rp, nil
}

// rankGolden is one pinned rank program of the wire-format goldens.
type rankGolden struct {
	file string
	gen  func() (*RankProgram, error)
}

// rankGoldens cover every optional part of the wire format: scratch
// spaces (bruck), the collective and operator labels with Reduce steps
// (rs-torus, ar-hypercube) and alltoallv count vectors (pairwise
// alltoallv).
var rankGoldens = []rankGolden{
	{"rank_torus4x4_r3.json", func() (*RankProgram, error) { return GenerateRank("torus", 16, 3, nil) }},
	{"rank_bruck6_r1.json", func() (*RankProgram, error) { return GenerateRank("bruck", 6, 1, nil) }},
	{"rank_rstorus4x4_r3.json", func() (*RankProgram, error) { return GenerateRank("rs-torus", 16, 3, nil) }},
	{"rank_arhypercube8_r5.json", func() (*RankProgram, error) { return GenerateRank("ar-hypercube", 8, 5, nil) }},
	{"rank_vpairwise5_r2.json", func() (*RankProgram, error) {
		s, err := GenerateV("pairwise", vTestCounts(5))
		if err != nil {
			return nil, err
		}
		return Slice(s, 2)
	}},
}

// readRankGoldens returns the golden files' bytes, keyed by file name.
// With -update they are first rewritten by the reference encoder.
func readRankGoldens(t testing.TB) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(rankGoldens))
	for _, g := range rankGoldens {
		path := filepath.Join("testdata", g.file)
		if *update {
			rp, err := g.gen()
			if err != nil {
				t.Fatalf("%s: %v", g.file, err)
			}
			b, err := encodeRankJSON(rp)
			if err != nil {
				t.Fatalf("%s: %v", g.file, err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with go test ./internal/sched -run TestRankProgramGolden -update)", err)
		}
		out[g.file] = b
	}
	return out
}

// TestRankProgramGolden pins the rank-program wire format: Encode
// reproduces every golden file byte for byte (so content addresses and
// registry roots stay valid), and DecodeRank followed by Encode
// round-trips each one.
func TestRankProgramGolden(t *testing.T) {
	files := readRankGoldens(t)
	for _, g := range rankGoldens {
		want := files[g.file]
		rp, err := g.gen()
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		var buf bytes.Buffer
		if err := rp.Encode(&buf); err != nil {
			t.Fatalf("%s: Encode: %v", g.file, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: Encode output differs from the golden file", g.file)
		}
		got, err := DecodeRank(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: DecodeRank: %v", g.file, err)
		}
		if !reflect.DeepEqual(got, rp) {
			t.Errorf("%s: decoded program differs from the generated one", g.file)
		}
		buf.Reset()
		if err := got.Encode(&buf); err != nil {
			t.Fatalf("%s: re-Encode: %v", g.file, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: DecodeRank+Encode does not round-trip", g.file)
		}
	}
}

// reformatted returns b compacted and re-indented in two other styles:
// the layouts any JSON tool may hand back.
func reformatted(t testing.TB, b []byte) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	out["compact"] = append([]byte(nil), buf.Bytes()...)
	for name, ind := range map[string][2]string{"tabs": {"", "\t"}, "prefixed": {"\r", "    "}} {
		buf.Reset()
		if err := json.Indent(&buf, b, ind[0], ind[1]); err != nil {
			t.Fatal(err)
		}
		out[name] = append([]byte(nil), buf.Bytes()...)
	}
	return out
}

// TestDecodeRankReformatted: layout is not part of what DecodeRank
// accepts — every golden file still decodes to the same program after
// json.Compact or json.Indent with another indent.
func TestDecodeRankReformatted(t *testing.T) {
	for file, b := range readRankGoldens(t) {
		want, err := decodeRankJSON(b)
		if err != nil {
			t.Fatalf("%s: oracle: %v", file, err)
		}
		for style, rb := range reformatted(t, b) {
			got, err := DecodeRank(bytes.NewReader(rb))
			if err != nil {
				t.Errorf("%s (%s): %v", file, style, err)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (%s): decoded program differs from the oracle's", file, style)
			}
		}
	}
}

// TestEncodeMatchesOracle holds the writer to the reflection encoder on
// the shapes generators never produce: nil and empty slices, negative
// numbers, and labels that need escaping.
func TestEncodeMatchesOracle(t *testing.T) {
	step := Step{Kind: Reduce, To: -1, From: 7, Src: Ref{2, -3, 1 << 30}, Dst: Ref{math.MinInt, 0, math.MaxInt}, Op: "<&>"}
	for name, rp := range map[string]*RankProgram{
		"zero":        {},
		"empty":       {Ranks: 1, VSend: []int{}, VRecv: []int{}, Scratch: []int{}, Rounds: [][]Step{}},
		"empty round": {Ranks: 2, Rank: 1, Rounds: [][]Step{{}, nil, {step}}},
		"escapes": {Format: 1, Name: "a\"b\\c\x00\x1f\b\f\n\r\t\x7f<>&\u2028\u2029é\xff\xfe😀", Ranks: 3,
			Coll: "\u00e9\u2029", Op: "</script>", VSend: []int{0, -1}, Rounds: [][]Step{{step, {Kind: "x\xc3("}}}},
	} {
		want, err := encodeRankJSON(rp)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: Encode differs from encoding/json:\n got %s\nwant %s", name, buf.Bytes(), want)
		}
		if got := rp.AppendJSON([]byte("x")); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("%s: AppendJSON does not append Encode's bytes", name)
		}
		if rp.Ranks > 0 && !checkDecodeAgainstOracle(t, want) {
			t.Errorf("%s: DecodeRank rejects Encode's output", name)
		}
	}
}

// TestRefMarshalJSON: the hand-written ref encoding is encoding/json's
// encoding of the [buf, off, n] array.
func TestRefMarshalJSON(t *testing.T) {
	for _, r := range []Ref{{}, {1, 2, 3}, {-1, math.MinInt, math.MaxInt}, {SpaceScratch + 9, 4096, 12}} {
		got, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal([3]int{r.Buf, r.Off, r.N})
		if !bytes.Equal(got, want) {
			t.Errorf("%v: MarshalJSON = %s, want %s", r, got, want)
		}
	}
}

// TestDecodeRankStrict names what the scanner refuses that encoding/json
// would have read loosely (or not at all).
func TestDecodeRankStrict(t *testing.T) {
	const base = `{"format":2,"ranks":2,"rank":1,"rounds":[[{"k":"copy","s":[0,1,1],"d":[1,1,1]}]]}`
	if _, err := DecodeRank(bytes.NewReader([]byte(base))); err != nil {
		t.Fatalf("base program rejected: %v", err)
	}
	for _, tc := range []struct{ in, want string }{
		{`{"format":2,"ranks":2,"rank":1,"extra":0}`, `unknown member "extra"`},
		{`{"Format":2,"ranks":2,"rank":1}`, `unknown member "Format"`},
		{`{"format":2,"ranks":2,"rank":1,"rank":0}`, `repeated member "rank"`},
		{`{"format":2,"ranks":2,"rank":1,"rounds":[[{"k":"copy","k":"send"}]]}`, `repeated member "k"`},
		{`{"format":2,"ranks":2,"rank":1,"rounds":[[{"s":[0,1]}]]}`, `ref has 2 elements`},
		{`{"format":2,"ranks":2,"rank":1,"rounds":[[{"s":[0,1,1,1]}]]}`, `ref has more than 3 elements`},
		{`{"format":2,"ranks":2.0,"rank":1}`, `fraction or exponent`},
		{`{"format":2,"ranks":2e0,"rank":1}`, `fraction or exponent`},
		{`{"format":2,"ranks":02,"rank":1}`, `leading zero`},
		{`{"format":2,"ranks":99999999999999999999,"rank":1}`, `out of range`},
		{`{"format":2,"ranks":-,"rank":1}`, `want an integer`},
		{`{"format":2,"ranks":2,"rank":1} {}`, `data after the rank program`},
		{`{"format":2,"name":"a` + "\n" + `b","ranks":2,"rank":1}`, `control character`},
		{`{"format":2,"name":"\x","ranks":2,"rank":1}`, `invalid escape`},
		{`{"format":2,"name":"\u12","ranks":2,"rank":1}`, `invalid \u escape`},
		{`{"format":2,"name":"ab`, `unterminated string`},
		{`{"format":2,"ranks":2,"rank":1,}`, `found '}', want '"'`},
		{`{"format":2 "ranks":2}`, `want ',' or '}'`},
		{`{"format":2,"ranks":2,"rank":1,"rounds":[[null]]}`, `found 'n', want '{'`},
		{`null`, `found 'n', want '{'`},
		{``, `unexpected end of input`},
		{`{"format":2,"ranks":2,"rank":2}`, `rank 2 out of range 0..1`},
		{`{"format":3,"ranks":2,"rank":1}`, `format 3`},
		{`{"format":2,"ranks":0,"rank":0}`, `invalid rank count 0`},
	} {
		_, err := DecodeRank(bytes.NewReader([]byte(tc.in)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.in, err, tc.want)
		}
	}
}

// checkDecodeAgainstOracle is the decoder's differential property: what
// DecodeRank accepts, the encoding/json oracle accepts too, with the
// same result, and the result re-encodes exactly as the oracle encodes
// it. It reports whether DecodeRank accepted b.
func checkDecodeAgainstOracle(t *testing.T, b []byte) bool {
	t.Helper()
	got, err := DecodeRank(bytes.NewReader(b))
	if err != nil {
		return false
	}
	want, oerr := decodeRankJSON(b)
	if oerr != nil {
		t.Fatalf("DecodeRank accepted what encoding/json rejects (%v):\n%q", oerr, b)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeRank and encoding/json disagree on\n%q:\n got %#v\nwant %#v", b, got, want)
	}
	enc, err := encodeRankJSON(got)
	if err != nil {
		t.Fatal(err)
	}
	if again := got.AppendJSON(nil); !bytes.Equal(again, enc) {
		t.Fatalf("Encode differs from encoding/json on a decoded program:\n got %s\nwant %s", again, enc)
	}
	return true
}

// FuzzDecodeRank feeds arbitrary bytes to DecodeRank: it must never
// panic, and whatever it accepts must be read exactly as encoding/json
// reads it. Seeds are the golden files in every layout plus escaped
// strings.
//
//	go test ./internal/sched -run '^$' -fuzz FuzzDecodeRank -fuzztime 30s
func FuzzDecodeRank(f *testing.F) {
	for _, b := range readRankGoldens(f) {
		f.Add(b)
		for _, rb := range reformatted(f, b) {
			f.Add(rb)
		}
	}
	f.Add([]byte(`{"format":1,"name":"\ud83d\ude00\ud800x\u00e9\/\"","ranks":1,"rank":0,"op":"\u003c\u2028","rounds":[null,[]]}`))
	f.Add([]byte(`{"format":2,"ranks":1,"rank":0,"vsend":null,"scratch":[],"rounds":[[{"k":"sendrecv","t":-0,"f":0,"s":[0,0,1],"d":[1,0,1],"o":"é"}]]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecodeAgainstOracle(t, b)
	})
}

// BenchmarkRankCodec times both directions of the wire format on a
// hypercube@256 rank program (9 rounds, 2,504 steps), beside the
// encoding/json oracle.
func BenchmarkRankCodec(b *testing.B) {
	rp, err := GenerateRank("hypercube", 256, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	enc := rp.AppendJSON(nil)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if err := rp.Encode(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-json", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := encodeRankJSON(rp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRank(bytes.NewReader(enc)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-json", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeRankJSON(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := VerifyRank(rp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
