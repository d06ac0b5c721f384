package schedreg

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"alltoallx/internal/artifact"
	"alltoallx/internal/sched"
	"alltoallx/internal/singleflight"
)

// Test seams: the compilation entry points, swappable so tests can
// count generator invocations and prove the exactly-once guarantee
// (a second process serving from disk must never reach these). A miss
// proves the world once with sched.VerifyWorld, persisted as the
// VERIFIED marker, then compiles the requested rank's program on
// demand — O(slice), never O(p^2) retained.
var (
	generateRank = sched.GenerateRank
	proveWorld   = sched.VerifyWorld
)

// Stats are the registry's lifetime counters (per Registry instance,
// not per root — a fresh process starts from zero even over a warm
// root).
type Stats struct {
	// Hits counts lookups served from disk without compiling.
	Hits int64 `json:"hits"`
	// Misses counts lookups that found nothing on disk and went to the
	// compile path.
	Misses int64 `json:"misses"`
	// NegativeHits counts lookups answered by a REJECTED marker.
	NegativeHits int64 `json:"negative_hits"`
	// Compiles counts rank programs compiled on a miss (the world
	// verification that precedes the first is not counted).
	Compiles int64 `json:"compiles"`
}

// Registry is a disk-backed store of compiled-and-verified rank
// programs. It is safe for concurrent use; concurrent use of several
// Registry instances (or processes) over the same root is safe too —
// all writes are atomic and content-addressed — though the
// compile-once guarantee is then per instance, not global.
type Registry struct {
	root string
	fl   singleflight.Group

	hits, misses, negHits, compiles atomic.Int64
}

// Open creates (if needed) and opens a registry rooted at dir.
func Open(dir string) (*Registry, error) {
	for _, d := range []string{dir, filepath.Join(dir, "objects"), filepath.Join(dir, "keys")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("schedreg: opening registry at %s: %w", dir, err)
		}
	}
	return &Registry{root: dir}, nil
}

// Root returns the registry's root directory.
func (r *Registry) Root() string { return r.root }

// Stats returns a snapshot of the lifetime counters.
func (r *Registry) Stats() Stats {
	return Stats{
		Hits:         r.hits.Load(),
		Misses:       r.misses.Load(),
		NegativeHits: r.negHits.Load(),
		Compiles:     r.compiles.Load(),
	}
}

func (r *Registry) worldDir(k Key) string {
	return filepath.Join(r.root, "keys", k.Gen, k.World())
}
func (r *Registry) refPath(k Key) string {
	return filepath.Join(r.worldDir(k), fmt.Sprintf("rank-%d.json", k.Rank))
}
func (r *Registry) verifiedPath(k Key) string { return filepath.Join(r.worldDir(k), "VERIFIED") }
func (r *Registry) rejectedPath(k Key) string { return filepath.Join(r.worldDir(k), "REJECTED") }
func (r *Registry) objectPath(sha string) string {
	return filepath.Join(r.root, "objects", sha[:2], sha+".json")
}

// ref is the content of a rank-<r>.json file.
type ref struct {
	SHA256 string `json:"sha256"`
}

// rejection is the content of a REJECTED marker.
type rejection struct {
	Error string `json:"error"`
}

// rejErr renders the uniform negative verdict, identical whether the
// rejection was just produced or read back from the marker.
func rejErr(k Key, cause string) error {
	return fmt.Errorf("schedreg: %s@%s: %w: %s", k.Gen, k.World(), ErrRejected, cause)
}

// Lookup serves k from disk state only — negative marker, then
// ref + verified marker + integrity-checked object — never compiling.
// ok reports whether the registry had a verdict (a program or a
// rejection); !ok means the caller may compile.
func (r *Registry) Lookup(k Key) (*sched.RankProgram, error, bool) {
	if err := k.validate(); err != nil {
		return nil, err, true
	}
	rp, err, ok := r.lookup(k)
	if ok {
		if err == nil {
			r.hits.Add(1)
		} else if errors.Is(err, ErrRejected) {
			r.negHits.Add(1)
		}
	}
	return rp, err, ok
}

// lookup is Lookup without counter updates (the compile path re-reads
// its own writes through it).
func (r *Registry) lookup(k Key) (*sched.RankProgram, error, bool) {
	if b, err := os.ReadFile(r.rejectedPath(k)); err == nil {
		var rej rejection
		if jerr := json.Unmarshal(b, &rej); jerr != nil {
			return nil, fmt.Errorf("schedreg: %s: corrupt REJECTED marker: %w", k, jerr), true
		}
		return nil, rejErr(k, rej.Error), true
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("schedreg: %s: reading REJECTED marker: %w", k, err), true
	}
	if _, err := os.Stat(r.verifiedPath(k)); err != nil {
		if os.IsNotExist(err) {
			return nil, nil, false
		}
		return nil, fmt.Errorf("schedreg: %s: reading VERIFIED marker: %w", k, err), true
	}
	b, err := os.ReadFile(r.refPath(k))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, false
		}
		return nil, fmt.Errorf("schedreg: %s: reading ref: %w", k, err), true
	}
	var rf ref
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("schedreg: %s: corrupt ref: %w", k, err), true
	}
	rp, err := r.loadObject(k, rf.SHA256)
	if err != nil {
		return nil, err, true
	}
	return rp, nil, true
}

// loadObject reads, integrity-checks, decodes and locally re-verifies
// the content-addressed program sha. The registry never serves an
// unverified program: the hash proves the bytes are the ones written,
// VerifyRank proves those bytes still encode a well-formed slice.
func (r *Registry) loadObject(k Key, sha string) (*sched.RankProgram, error) {
	if len(sha) != 64 {
		return nil, fmt.Errorf("schedreg: %s: ref holds malformed object hash %q", k, sha)
	}
	b, err := os.ReadFile(r.objectPath(sha))
	if err != nil {
		return nil, fmt.Errorf("schedreg: %s: reading object %s: %w", k, sha[:12], err)
	}
	if got := hexSum(b); got != sha {
		return nil, fmt.Errorf("schedreg: %s: object %s is corrupt (content hashes to %s)", k, sha[:12], got[:12])
	}
	rp, err := sched.DecodeRank(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("schedreg: %s: object %s: %w", k, sha[:12], err)
	}
	// Generators name schedules with a shape suffix ("torus3x4"), so the
	// generator match is a prefix check.
	if !strings.HasPrefix(rp.Name, k.Gen) || rp.Ranks != k.Ranks || rp.Rank != k.Rank {
		return nil, fmt.Errorf("schedreg: %s: object %s holds %s@p%d rank %d — ref points at the wrong program",
			k, sha[:12], rp.Name, rp.Ranks, rp.Rank)
	}
	if err := sched.VerifyRank(rp); err != nil {
		return nil, fmt.Errorf("schedreg: %s: object %s failed verification: %w", k, sha[:12], err)
	}
	return rp, nil
}

func hexSum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// GetOrCompile serves k, compiling on a registry miss. Concurrent
// callers for the same world coalesce into one world verification, and
// for the same rank into one compilation; a generator rejection is
// persisted as a REJECTED marker so no process ever re-runs a
// generator against a world it cannot handle.
func (r *Registry) GetOrCompile(k Key) (*sched.RankProgram, error) {
	if err := k.validate(); err != nil {
		return nil, err
	}
	if rp, err, ok := r.Lookup(k); ok {
		return rp, err
	}
	r.misses.Add(1)
	if _, err, _ := r.fl.Do("verify|"+r.worldDir(k), func() (any, error) {
		return nil, r.verifyWorld(k)
	}); err != nil {
		return nil, err
	}
	v, err, _ := r.fl.Do("rank|"+r.refPath(k), func() (any, error) {
		return r.compileRank(k)
	})
	if err != nil {
		return nil, err
	}
	return v.(*sched.RankProgram), nil
}

// verifyWorld is the world gate: one sched.VerifyWorld per world,
// persisted as the VERIFIED marker so later processes skip it entirely.
func (r *Registry) verifyWorld(k Key) error {
	if _, err := os.Stat(r.verifiedPath(k)); err == nil {
		return nil
	}
	m, err := k.Mapping()
	if err != nil {
		return err
	}
	if err := proveWorld(k.Gen, k.Ranks, m); err != nil {
		return r.reject(k, err)
	}
	return r.markVerified(k)
}

// compileRank is the per-rank miss path. The world is already VERIFIED
// (verifyWorld checked every rank's program, and generation is
// deterministic), so no per-slice re-check. A caller that missed Lookup
// while an earlier flight for the same rank was persisting it is served
// from disk.
func (r *Registry) compileRank(k Key) (*sched.RankProgram, error) {
	if rp, err, ok := r.lookup(k); ok {
		return rp, err
	}
	m, err := k.Mapping()
	if err != nil {
		return nil, err
	}
	r.compiles.Add(1)
	rp, err := generateRank(k.Gen, k.Ranks, k.Rank, m)
	if err != nil {
		// Key validation screened rank-range errors, so whatever the
		// generator objects to here is a property of the world.
		return nil, r.reject(k, err)
	}
	if err := r.putProgram(k, rp); err != nil {
		return nil, err
	}
	return rp, nil
}

// putProgram persists rp as a content-addressed object plus the ref
// that names it. Writing an object that already exists is skipped —
// generation is deterministic, so the bytes would be identical.
func (r *Registry) putProgram(k Key, rp *sched.RankProgram) error {
	var buf bytes.Buffer
	if err := rp.Encode(&buf); err != nil {
		return fmt.Errorf("schedreg: %s: encoding program: %w", k, err)
	}
	b := buf.Bytes()
	sha := hexSum(b)
	op := r.objectPath(sha)
	if _, err := os.Stat(op); err != nil {
		if err := os.MkdirAll(filepath.Dir(op), 0o755); err != nil {
			return fmt.Errorf("schedreg: %s: creating object dir: %w", k, err)
		}
		if err := artifact.Save(op, fmt.Sprintf("schedreg: %s: saving object", k), func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		}); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(r.worldDir(k), 0o755); err != nil {
		return fmt.Errorf("schedreg: %s: creating world dir: %w", k, err)
	}
	return artifact.Save(r.refPath(k), fmt.Sprintf("schedreg: %s: saving ref", k), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(ref{SHA256: sha})
	})
}

// markVerified persists the world's verification verdict.
func (r *Registry) markVerified(k Key) error {
	if err := os.MkdirAll(r.worldDir(k), 0o755); err != nil {
		return fmt.Errorf("schedreg: %s@%s: creating world dir: %w", k.Gen, k.World(), err)
	}
	return artifact.Save(r.verifiedPath(k), fmt.Sprintf("schedreg: %s@%s: saving VERIFIED marker", k.Gen, k.World()),
		func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "verified\n")
			return err
		})
}

// reject persists the negative verdict and returns it in the uniform
// rejection form. The marker is what makes the negative cache
// cross-process: a restarted registry answers from it without touching
// the generator.
func (r *Registry) reject(k Key, cause error) error {
	if err := os.MkdirAll(r.worldDir(k), 0o755); err != nil {
		return fmt.Errorf("schedreg: %s@%s: creating world dir: %w", k.Gen, k.World(), err)
	}
	if err := artifact.Save(r.rejectedPath(k), fmt.Sprintf("schedreg: %s@%s: saving REJECTED marker", k.Gen, k.World()),
		func(w io.Writer) error {
			return json.NewEncoder(w).Encode(rejection{Error: cause.Error()})
		}); err != nil {
		return err
	}
	return rejErr(k, cause.Error())
}

// Entry summarizes one (generator, world) directory for List.
type Entry struct {
	Gen      string `json:"gen"`
	World    string `json:"world"`
	Verified bool   `json:"verified"`
	Rejected bool   `json:"rejected"`
	Programs int    `json:"programs"`
	Bytes    int64  `json:"bytes"`
}

// List walks the registry and summarizes every (generator, world) it
// holds, sorted by generator then world. Bytes sums the referenced
// objects' on-disk sizes (shared objects are counted once per ref that
// names them — the number a consumer of that world would download).
func (r *Registry) List() ([]Entry, error) {
	keysDir := filepath.Join(r.root, "keys")
	gens, err := os.ReadDir(keysDir)
	if err != nil {
		return nil, fmt.Errorf("schedreg: listing registry at %s: %w", r.root, err)
	}
	var out []Entry
	for _, g := range gens {
		if !g.IsDir() {
			continue
		}
		worlds, err := os.ReadDir(filepath.Join(keysDir, g.Name()))
		if err != nil {
			return nil, fmt.Errorf("schedreg: listing generator %s: %w", g.Name(), err)
		}
		for _, w := range worlds {
			if !w.IsDir() {
				continue
			}
			e := Entry{Gen: g.Name(), World: w.Name()}
			dir := filepath.Join(keysDir, g.Name(), w.Name())
			files, err := os.ReadDir(dir)
			if err != nil {
				return nil, fmt.Errorf("schedreg: listing %s@%s: %w", e.Gen, e.World, err)
			}
			for _, f := range files {
				switch {
				case f.Name() == "VERIFIED":
					e.Verified = true
				case f.Name() == "REJECTED":
					e.Rejected = true
				case strings.HasPrefix(f.Name(), "rank-"):
					e.Programs++
					var rf ref
					if b, err := os.ReadFile(filepath.Join(dir, f.Name())); err == nil && json.Unmarshal(b, &rf) == nil && len(rf.SHA256) == 64 {
						if st, err := os.Stat(r.objectPath(rf.SHA256)); err == nil {
							e.Bytes += st.Size()
						}
					}
				}
			}
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gen != out[j].Gen {
			return out[i].Gen < out[j].Gen
		}
		return out[i].World < out[j].World
	})
	return out, nil
}
