package schedreg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"alltoallx/internal/sched"
	"alltoallx/internal/topo"
)

// seamCounters instruments the compilation seams for the duration of a
// test, so tests can prove the generator did or did not run. Tests that
// install counters must not run in parallel (the seams are package
// globals).
type seamCounters struct {
	rankGenerates, worldVerifies atomic.Int64
}

func countSeams(t *testing.T) *seamCounters {
	t.Helper()
	var c seamCounters
	ogr, ovw := generateRank, proveWorld
	generateRank = func(name string, p, rank int, m *topo.Mapping) (*sched.RankProgram, error) {
		c.rankGenerates.Add(1)
		return ogr(name, p, rank, m)
	}
	proveWorld = func(name string, p int, m *topo.Mapping) error {
		c.worldVerifies.Add(1)
		return ovw(name, p, m)
	}
	t.Cleanup(func() { generateRank, proveWorld = ogr, ovw })
	return &c
}

// wantWork asserts the seam counts so far: world verifications and rank
// compilations.
func (c *seamCounters) wantWork(t *testing.T, what string, verifies, compiles int64) {
	t.Helper()
	if v, g := c.worldVerifies.Load(), c.rankGenerates.Load(); v != verifies || g != compiles {
		t.Fatalf("%s: %d world verifications and %d rank compiles, want %d and %d", what, v, g, verifies, compiles)
	}
}

func mustMapping(t *testing.T, nodes, ppn int) *topo.Mapping {
	t.Helper()
	m, err := topo.NewMapping(topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: ppn}, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func encodeRP(t *testing.T, rp *sched.RankProgram) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGetOrCompileRoundTrip: a miss compiles and persists; the result
// is byte-identical to direct generation; a second call is a pure disk
// hit.
func TestGetOrCompileRoundTrip(t *testing.T) {
	c := countSeams(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := mustMapping(t, 3, 4)
	k := KeyFor("torus", 12, m, 5)

	rp, err := reg.GetOrCompile(k)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.GenerateRank("torus", 12, 5, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRP(t, rp), encodeRP(t, want)) {
		t.Fatal("registry program differs from direct generation")
	}
	c.wantWork(t, "cold fetch", 1, 1)

	rp2, err := reg.GetOrCompile(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRP(t, rp2), encodeRP(t, want)) {
		t.Fatal("second fetch differs")
	}
	c.wantWork(t, "second fetch", 1, 1)
	st := reg.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Compiles != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit, 1 compile", st)
	}
}

// TestCompileOnceAcrossRegistryInstances is the acceptance criterion:
// two registry instances over one root (two processes, or one
// restarted) compile a key exactly once — the second serves from disk
// with zero generator invocations, byte-identically.
func TestCompileOnceAcrossRegistryInstances(t *testing.T) {
	c := countSeams(t)
	root := t.TempDir()
	m := mustMapping(t, 2, 4)
	k := KeyFor("ring", 8, m, 3)

	reg1, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	first, err := reg1.GetOrCompile(k)
	if err != nil {
		t.Fatal(err)
	}
	c.wantWork(t, "first instance", 1, 1)

	reg2, err := Open(root) // a second process: fresh instance, same root
	if err != nil {
		t.Fatal(err)
	}
	second, err := reg2.GetOrCompile(k)
	if err != nil {
		t.Fatal(err)
	}
	c.wantWork(t, "second instance", 1, 1)
	if !bytes.Equal(encodeRP(t, first), encodeRP(t, second)) {
		t.Fatal("instances disagree on program bytes")
	}
	if st := reg2.Stats(); st.Hits != 1 || st.Misses != 0 || st.Compiles != 0 {
		t.Fatalf("second instance stats = %+v, want a pure hit", st)
	}
	// A sibling rank reuses the VERIFIED marker but compiles its own
	// program, once: a third instance serves it from disk.
	k6 := k
	k6.Rank = 6
	if _, err := reg2.GetOrCompile(k6); err != nil {
		t.Fatal(err)
	}
	c.wantWork(t, "sibling rank", 1, 2)
	if _, err := Open2(t, root).GetOrCompile(k6); err != nil {
		t.Fatal(err)
	}
	c.wantWork(t, "sibling rank from a third instance", 1, 2)
}

// TestNegativeCache: a rejected world is persisted; later instances
// answer from the marker without re-running the generator, and the
// verdict wraps ErrRejected with full key context.
func TestNegativeCache(t *testing.T) {
	c := countSeams(t)
	root := t.TempDir()
	reg1, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFor("hypercube", 6, nil, 0) // hypercube needs a power of 2
	_, err = reg1.GetOrCompile(k)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	c.wantWork(t, "rejection", 1, 0)

	reg2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = reg2.GetOrCompile(k)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("second instance: want ErrRejected, got %v", err)
	}
	for _, frag := range []string{"hypercube", "p6-flat", "power-of-two"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("rejection %q does not mention %q", err, frag)
		}
	}
	c.wantWork(t, "second instance", 1, 0)
	if st := reg2.Stats(); st.NegativeHits != 1 || st.Compiles != 0 {
		t.Fatalf("second instance stats = %+v, want 1 negative hit, 0 compiles", st)
	}
}

// TestLargeWorldSlicedPath: above sched.FullVerifyRanks the registry
// verifies the world once (streamed) and compiles only the requested
// rank's program — and a restarted instance reuses both the marker and
// the program.
func TestLargeWorldSlicedPath(t *testing.T) {
	c := countSeams(t)
	root := t.TempDir()
	p := sched.FullVerifyRanks + 2
	k := KeyFor("direct", p, nil, 7)

	reg1, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := reg1.GetOrCompile(k)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.GenerateRank("direct", p, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRP(t, rp), encodeRP(t, want)) {
		t.Fatal("sliced-path program differs from direct generation")
	}
	c.wantWork(t, "cold fetch", 1, 1)
	// Only the requested rank was persisted.
	refs, err := filepath.Glob(filepath.Join(root, "keys", "direct", k.World(), "rank-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 {
		t.Fatalf("found %d rank refs, want 1 (on-demand compilation)", len(refs))
	}

	reg2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.GetOrCompile(k); err != nil {
		t.Fatal(err)
	}
	c.wantWork(t, "restart", 1, 1)
	// A sibling rank reuses the VERIFIED marker but compiles its own slice.
	k9 := k
	k9.Rank = 9
	if _, err := reg2.GetOrCompile(k9); err != nil {
		t.Fatal(err)
	}
	c.wantWork(t, "sibling rank", 1, 2)
}

// TestConcurrentGetOrCompile: goroutines racing on the same and
// different ranks of one world produce one world verification, one
// compilation per rank and byte-identical programs. Run with -race.
func TestConcurrentGetOrCompile(t *testing.T) {
	c := countSeams(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := mustMapping(t, 4, 4)
	const goroutines = 32
	var wg sync.WaitGroup
	progs := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp, err := reg.GetOrCompile(KeyFor("torus", 16, m, i%16))
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			if err := rp.Encode(&buf); err != nil {
				errs[i] = err
				return
			}
			progs[i] = buf.Bytes()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	c.wantWork(t, "under contention", 1, 16)
	for i := 0; i < goroutines; i++ {
		j := (i + 16) % goroutines // same rank, different goroutine
		if !bytes.Equal(progs[i], progs[j]) {
			t.Fatalf("goroutines %d and %d disagree on rank %d's program", i, j, i%16)
		}
	}
}

// TestErrorAttribution pins satellite requirement: registry I/O errors
// carry the (generator, world, rank) that produced them.
func TestErrorAttribution(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := mustMapping(t, 2, 4)
	k := KeyFor("ring", 8, m, 3)
	if _, err := reg.GetOrCompile(k); err != nil {
		t.Fatal(err)
	}

	// Corrupt the object rank 3's ref points at.
	var rf ref
	b, err := os.ReadFile(reg.refPath(k))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reg.objectPath(rf.SHA256), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err, ok := Open2(t, reg.Root()).Lookup(k)
	if !ok || err == nil {
		t.Fatal("corrupt object went unnoticed")
	}
	for _, frag := range []string{"ring", "p8-2x4", "rank 3", "corrupt"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}

	// A missing object is equally attributable.
	if err := os.Remove(reg.objectPath(rf.SHA256)); err != nil {
		t.Fatal(err)
	}
	_, err, _ = Open2(t, reg.Root()).Lookup(k)
	if err == nil {
		t.Fatal("missing object went unnoticed")
	}
	for _, frag := range []string{"ring", "p8-2x4", "rank 3"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}

// Open2 opens a fresh instance over root, failing the test on error.
func Open2(t *testing.T, root string) *Registry {
	t.Helper()
	reg, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestKeyValidation: malformed keys are refused before any disk or
// generator work.
func TestKeyValidation(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := []Key{
		{Gen: "", Ranks: 8, Rank: 0},
		{Gen: "../escape", Ranks: 8, Rank: 0},
		{Gen: "ring", Ranks: 1, Rank: 0},
		{Gen: "ring", Ranks: 8, Rank: 8},
		{Gen: "ring", Ranks: 8, Rank: -1},
		{Gen: "ring", Ranks: 8, Rank: 0, Nodes: 2},
	}
	for _, k := range bad {
		if _, err := reg.GetOrCompile(k); err == nil {
			t.Errorf("key %+v accepted", k)
		}
	}
}

// TestList summarizes registry contents after mixed outcomes.
func TestList(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := mustMapping(t, 2, 4)
	if _, err := reg.GetOrCompile(KeyFor("ring", 8, m, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.GetOrCompile(KeyFor("hypercube", 6, nil, 0)); !errors.Is(err, ErrRejected) {
		t.Fatalf("want rejection, got %v", err)
	}
	entries, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(entries), entries)
	}
	hc, ring := entries[0], entries[1]
	if hc.Gen != "hypercube" || !hc.Rejected || hc.Verified || hc.Programs != 0 {
		t.Fatalf("hypercube entry = %+v", hc)
	}
	if ring.Gen != "ring" || ring.World != "p8-2x4" || !ring.Verified || ring.Rejected {
		t.Fatalf("ring entry = %+v", ring)
	}
	if ring.Programs != 1 || ring.Bytes <= 0 {
		t.Fatalf("ring entry = %+v, want the 1 fetched program with bytes", ring)
	}
	_ = fmt.Sprint(entries)
}
