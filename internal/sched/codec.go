// The rank-program wire format, encoded and decoded without reflection.
// A warm registry fetch is dominated by moving a program across this
// format, so AppendJSON is one append-based writer and DecodeRank one
// pass over the bytes.
//
// The writer's output is byte-identical to encoding/json's Encoder with
// SetIndent("", " ") over RankProgram's struct tags: one-space indent,
// field order, omitempty, null for a nil slice and [] for an empty one,
// and encoding/json's default string escaping (HTML characters
// included). Content addresses, VERIFIED markers and registry roots
// written by earlier builds therefore stay valid. codec_test.go keeps
// the reflection codec as the oracle and pins golden files against it.
//
// The scanner reads a strict subset of what encoding/json accepts for a
// RankProgram: any whitespace and member order, but no unknown or
// repeated keys (encoding/json matches keys case-insensitively and
// merges repeats), integers only, exactly three elements per ref, and
// nothing after the object. Whatever it accepts decodes to exactly what
// encoding/json would have produced; FuzzDecodeRank holds it to that.

package sched

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// indent is a newline followed by enough one-space indent levels for the
// deepest value of the format (a ref element, depth 5); indent[:1+d]
// starts a line at depth d.
const indent = "\n     "

// encodedStepBytes slightly over-estimates one step's encoded size, so
// Encode's buffer is sized once.
const encodedStepBytes = 128

// Encode writes the rank program as versioned JSON (the Format field is
// written as FormatVersion). It does not modify rp: verified programs are
// shared between concurrent callers — coalesced registry requests encode
// the same instance.
func (rp *RankProgram) Encode(w io.Writer) error {
	_, err := w.Write(rp.AppendJSON(make([]byte, 0, rp.Steps()*encodedStepBytes+512)))
	return err
}

// AppendJSON appends the bytes Encode writes to b and returns the
// extended buffer.
func (rp *RankProgram) AppendJSON(b []byte) []byte {
	b = append(b, "{\n \"format\": "...)
	b = strconv.AppendInt(b, FormatVersion, 10)
	b = append(b, ",\n \"name\": "...)
	b = appendString(b, rp.Name)
	b = append(b, ",\n \"ranks\": "...)
	b = strconv.AppendInt(b, int64(rp.Ranks), 10)
	b = append(b, ",\n \"rank\": "...)
	b = strconv.AppendInt(b, int64(rp.Rank), 10)
	if rp.Coll != "" {
		b = append(b, ",\n \"coll\": "...)
		b = appendString(b, string(rp.Coll))
	}
	if rp.Op != "" {
		b = append(b, ",\n \"op\": "...)
		b = appendString(b, rp.Op)
	}
	if len(rp.VSend) > 0 {
		b = append(b, ",\n \"vsend\": "...)
		b = appendArray(b, rp.VSend, 1, appendInt)
	}
	if len(rp.VRecv) > 0 {
		b = append(b, ",\n \"vrecv\": "...)
		b = appendArray(b, rp.VRecv, 1, appendInt)
	}
	if len(rp.Scratch) > 0 {
		b = append(b, ",\n \"scratch\": "...)
		b = appendArray(b, rp.Scratch, 1, appendInt)
	}
	b = append(b, ",\n \"rounds\": "...)
	b = appendArray(b, rp.Rounds, 1, func(b []byte, steps []Step) []byte {
		return appendArray(b, steps, 2, appendStep)
	})
	return append(b, "\n}\n"...)
}

// appendArray appends xs as a JSON array opened at depth, one element
// per line at depth+1: null for a nil slice, [] for an empty one.
func appendArray[T any](b []byte, xs []T, depth int, elem func([]byte, T) []byte) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	if len(xs) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, indent[:depth+2]...)
		b = elem(b, x)
	}
	b = append(b, indent[:depth+1]...)
	return append(b, ']')
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendStep appends one step object at depth 3 (its members at depth 4).
func appendStep(b []byte, s Step) []byte {
	b = append(b, "{\n    \"k\": "...)
	b = appendString(b, string(s.Kind))
	if s.To != 0 {
		b = append(b, ",\n    \"t\": "...)
		b = strconv.AppendInt(b, int64(s.To), 10)
	}
	if s.From != 0 {
		b = append(b, ",\n    \"f\": "...)
		b = strconv.AppendInt(b, int64(s.From), 10)
	}
	b = append(b, ",\n    \"s\": "...)
	b = appendRef(b, s.Src)
	b = append(b, ",\n    \"d\": "...)
	b = appendRef(b, s.Dst)
	if s.Op != "" {
		b = append(b, ",\n    \"o\": "...)
		b = appendString(b, s.Op)
	}
	return append(b, "\n   }"...)
}

// appendRef appends a ref's [buf, off, n] array at depth 4.
func appendRef(b []byte, r Ref) []byte {
	b = append(b, "[\n     "...)
	b = strconv.AppendInt(b, int64(r.Buf), 10)
	b = append(b, ",\n     "...)
	b = strconv.AppendInt(b, int64(r.Off), 10)
	b = append(b, ",\n     "...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	return append(b, "\n    ]"...)
}

// appendString appends s as a JSON string escaped exactly as
// encoding/json escapes it by default: quote, backslash, control
// characters, the HTML-significant <, > and &, U+2028 and U+2029, and
// invalid UTF-8 (written as U+FFFD).
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// DecodeRank reads one rank program from r, checking the format version
// and basic shape (like Decode, it stays cheap; run VerifyRank for the
// local correctness checks).
func DecodeRank(r io.Reader) (*RankProgram, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("sched: reading rank program: %w", err)
	}
	d := rankScanner{b: b}
	rp, err := d.program()
	if err != nil {
		return nil, fmt.Errorf("sched: decoding rank program: %w", err)
	}
	if !formatReadable(rp.Format) {
		return nil, fmt.Errorf("sched: rank program format %d, this build reads formats 1-%d — regenerate with a2asched slice", rp.Format, FormatVersion)
	}
	if rp.Ranks <= 0 {
		return nil, fmt.Errorf("sched: rank program has invalid rank count %d", rp.Ranks)
	}
	if rp.Rank < 0 || rp.Rank >= rp.Ranks {
		return nil, fmt.Errorf("sched: rank program rank %d out of range 0..%d", rp.Rank, rp.Ranks-1)
	}
	return rp, nil
}

// readAll reads r to EOF, sizing the buffer once when r reports the
// length left to read (a bytes.Reader over a registry object does).
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// rankScanner is a single-pass reader of the rank-program wire format.
type rankScanner struct {
	b []byte
	i int
	// steps is the step list of the round being read, reused across
	// rounds; each round keeps an exactly sized copy.
	steps []Step
}

func (d *rankScanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// The member names of a program object and of a step object; a name's
// index is its bit in the set of members already read.
var (
	programKeys = []string{"format", "name", "ranks", "rank", "coll", "op", "vsend", "vrecv", "scratch", "rounds"}
	stepKeys    = []string{"k", "t", "f", "s", "d", "o"}
)

func (d *rankScanner) program() (*RankProgram, error) {
	rp := &RankProgram{}
	if err := d.open('{'); err != nil {
		return nil, err
	}
	var seen uint
	for n := 0; ; n++ {
		key, err := d.member(n, programKeys, &seen)
		if err != nil {
			return nil, err
		}
		switch key {
		case -1:
			d.space()
			if d.i != len(d.b) {
				return nil, d.errorf("data after the rank program")
			}
			return rp, nil
		case 0: // format
			rp.Format, err = d.int()
		case 1: // name
			rp.Name, err = d.str()
		case 2: // ranks
			rp.Ranks, err = d.int()
		case 3: // rank
			rp.Rank, err = d.int()
		case 4: // coll
			var c string
			c, err = d.str()
			rp.Coll = Coll(c)
		case 5: // op
			rp.Op, err = d.str()
		case 6: // vsend
			rp.VSend, err = d.ints()
		case 7: // vrecv
			rp.VRecv, err = d.ints()
		case 8: // scratch
			rp.Scratch, err = d.ints()
		case 9: // rounds
			rp.Rounds, err = d.rounds()
		}
		if err != nil {
			return nil, err
		}
	}
}

// member reads the name of the next member of an object already opened
// (n members in) and the colon after it. It returns the name's index in
// keys, or -1 once the object closes; a name outside keys, or one
// already in seen, is an error.
func (d *rankScanner) member(n int, keys []string, seen *uint) (int, error) {
	more, err := d.more(n, '}')
	if err != nil || !more {
		return -1, err
	}
	name, err := d.quoted()
	if err != nil {
		return -1, err
	}
	key := -1
	for k, s := range keys {
		if string(name) == s {
			key = k
			break
		}
	}
	if key < 0 {
		return -1, d.errorf("unknown member %q", name)
	}
	if *seen&(1<<key) != 0 {
		return -1, d.errorf("repeated member %q", name)
	}
	*seen |= 1 << key
	return key, d.open(':')
}

// rounds reads the rounds array: one step list (or null) per round.
func (d *rankScanner) rounds() ([][]Step, error) {
	if d.null() {
		return nil, nil
	}
	if err := d.open('['); err != nil {
		return nil, err
	}
	rounds := [][]Step{}
	for n := 0; ; n++ {
		more, err := d.more(n, ']')
		if err != nil || !more {
			return rounds, err
		}
		if d.null() {
			rounds = append(rounds, nil)
			continue
		}
		if err := d.open('['); err != nil {
			return nil, err
		}
		d.steps = d.steps[:0]
		for m := 0; ; m++ {
			more, err := d.more(m, ']')
			if err != nil {
				return nil, err
			}
			if !more {
				break
			}
			s, err := d.step()
			if err != nil {
				return nil, err
			}
			d.steps = append(d.steps, s)
		}
		rounds = append(rounds, append(make([]Step, 0, len(d.steps)), d.steps...))
	}
}

func (d *rankScanner) step() (Step, error) {
	var s Step
	if err := d.open('{'); err != nil {
		return s, err
	}
	var seen uint
	for n := 0; ; n++ {
		key, err := d.member(n, stepKeys, &seen)
		if err != nil || key < 0 {
			return s, err
		}
		switch key {
		case 0: // k
			var k string
			k, err = d.str()
			s.Kind = Kind(k)
		case 1: // t
			s.To, err = d.int()
		case 2: // f
			s.From, err = d.int()
		case 3: // s
			s.Src, err = d.ref()
		case 4: // d
			s.Dst, err = d.ref()
		case 5: // o
			s.Op, err = d.str()
		}
		if err != nil {
			return s, err
		}
	}
}

// ref reads the [buf, off, n] form of a Ref.
func (d *rankScanner) ref() (Ref, error) {
	var a [3]int
	if err := d.open('['); err != nil {
		return Ref{}, err
	}
	for n := 0; ; n++ {
		more, err := d.more(n, ']')
		if err != nil {
			return Ref{}, err
		}
		if !more {
			if n != len(a) {
				return Ref{}, d.errorf("ref has %d elements, want [buf, off, n]", n)
			}
			return Ref{Buf: a[0], Off: a[1], N: a[2]}, nil
		}
		if n == len(a) {
			return Ref{}, d.errorf("ref has more than 3 elements, want [buf, off, n]")
		}
		if a[n], err = d.int(); err != nil {
			return Ref{}, err
		}
	}
}

// ints reads an integer array, or null as a nil slice.
func (d *rankScanner) ints() ([]int, error) {
	if d.null() {
		return nil, nil
	}
	if err := d.open('['); err != nil {
		return nil, err
	}
	xs := []int{}
	for n := 0; ; n++ {
		more, err := d.more(n, ']')
		if err != nil || !more {
			return xs, err
		}
		v, err := d.int()
		if err != nil {
			return nil, err
		}
		xs = append(xs, v)
	}
}

// space skips JSON whitespace.
func (d *rankScanner) space() {
	b, i := d.b, d.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	d.i = i
}

// open consumes the delimiter c after optional whitespace.
func (d *rankScanner) open(c byte) error {
	d.space()
	if d.i >= len(d.b) {
		return d.errorf("unexpected end of input, want %q", c)
	}
	if d.b[d.i] != c {
		return d.errorf("found %q, want %q", d.b[d.i], c)
	}
	d.i++
	return nil
}

// more reports whether the object or array being read, closed by end,
// has another member after the n already read. It consumes the comma
// before that member, or the closing delimiter.
func (d *rankScanner) more(n int, end byte) (bool, error) {
	d.space()
	if d.i >= len(d.b) {
		return false, d.errorf("unexpected end of input, want %q", end)
	}
	switch c := d.b[d.i]; {
	case c == end:
		d.i++
		return false, nil
	case n == 0:
		return true, nil
	case c == ',':
		d.i++
		return true, nil
	default:
		return false, d.errorf("found %q, want ',' or %q", c, end)
	}
}

// null consumes a null literal if one comes next.
func (d *rankScanner) null() bool {
	d.space()
	if len(d.b)-d.i >= 4 && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

// safeDigits is the most decimal digits that always fit an int.
const safeDigits = strconv.IntSize*3/10 - 1

// int reads a JSON number that is an integer in range of int (what
// encoding/json decodes into an int field).
func (d *rankScanner) int() (int, error) {
	d.space()
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := i
	v := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		v = v*10 + int(b[i]-'0')
	}
	switch {
	case i == digits:
		return 0, d.errorf("want an integer")
	case b[digits] == '0' && i-digits > 1:
		return 0, d.errorf("integer with a leading zero")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, d.errorf("want an integer, found a fraction or exponent")
	case i-digits > safeDigits:
		// The sum above may have wrapped: let strconv decide the range.
		n, err := strconv.ParseInt(string(b[start:i]), 10, strconv.IntSize)
		if err != nil {
			return 0, d.errorf("integer out of range")
		}
		v = int(n)
	case digits > start:
		v = -v
	}
	d.i = i
	return v, nil
}

// str reads a JSON string. The labels every program repeats (step
// kinds, the operator) come back as the package's constants rather
// than fresh allocations.
func (d *rankScanner) str() (string, error) {
	b, err := d.quoted()
	if err != nil {
		return "", err
	}
	switch string(b) {
	case string(Send):
		return string(Send), nil
	case string(Recv):
		return string(Recv), nil
	case string(SendRecv):
		return string(SendRecv), nil
	case string(Copy):
		return string(Copy), nil
	case string(Reduce):
		return string(Reduce), nil
	case OpAny:
		return OpAny, nil
	}
	return string(b), nil
}

// quoted reads a JSON string and returns its contents: a slice of the
// input when nothing needs rewriting, otherwise a copy unescaped the way
// encoding/json does it.
func (d *rankScanner) quoted() ([]byte, error) {
	if err := d.open('"'); err != nil {
		return nil, err
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.unquote(append([]byte(nil), d.b[start:d.i]...))
		}
	}
	return nil, d.errorf("unterminated string")
}

// unquote continues reading a string whose contents so far are out: it
// resolves escapes, rejects control characters and replaces invalid
// UTF-8 and unpaired surrogates with U+FFFD, as encoding/json does.
func (d *rankScanner) unquote(out []byte) ([]byte, error) {
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			return out, nil
		case c < ' ':
			return nil, d.errorf("control character %#02x in string", c)
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			d.i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.b[d.i:])
			out = utf8.AppendRune(out, r)
			d.i += size
		default:
			if d.i+1 >= len(d.b) {
				return nil, d.errorf("unterminated string")
			}
			switch e := d.b[d.i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d.b[d.i:])
				if r < 0 {
					return nil, d.errorf("invalid \\u escape")
				}
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(d.b[d.i+6:])); dec != unicode.ReplacementChar {
						r = dec
						d.i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
				d.i += 6
				continue
			default:
				return nil, d.errorf("invalid escape \\%c", e)
			}
			d.i += 2
		}
	}
	return nil, d.errorf("unterminated string")
}

// hex4 decodes the \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
