package main

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"alltoallx/internal/schedreg"
)

// serveWorlds are the cold job's worlds: one on the whole-world path, one
// on the sliced path.
var serveWorlds = []schedWorld{
	{gen: "torus", nodes: 4, ppn: 16},
	{gen: "hypercube", nodes: 16, ppn: 16},
}

// servePassOps is the number of warm fetches in one pass.
const servePassOps = 96

type serveKey struct {
	world int // index into serveWorlds
	rank  int
}

func (k serveKey) url() string {
	w := serveWorlds[k.world]
	return fmt.Sprintf("/v1/program?gen=%s&ranks=%d&nodes=%d&ppn=%d&rank=%d", w.gen, w.ranks(), w.nodes, w.ppn, k.rank)
}

func (k serveKey) key() schedreg.Key {
	w := serveWorlds[k.world]
	return schedreg.Key{Gen: w.gen, Ranks: w.ranks(), Nodes: w.nodes, PPN: w.ppn, Rank: k.rank}
}

type serveState struct {
	reg  *schedreg.Registry
	srv  *schedreg.Server
	keys []serveKey                     // every rank program of the job
	cold map[serveKey][sha256.Size]byte // body hash of each cold fetch
	dirs int
}

// fetch serves one GET through the handler.
func (st *serveState) fetch(tr *tracer, parent int64, k serveKey) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodGet, k.url(), nil)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	sp := tr.begin("schedreg.ServeHTTP", parent)
	st.srv.ServeHTTP(rec, req)
	sp.end()
	return rec, time.Since(t0)
}

// openRegistry opens a fresh registry under the run's scratch directory.
func (st *serveState) openRegistry(env *runEnv) (*schedreg.Registry, error) {
	st.dirs++
	return schedreg.Open(filepath.Join(env.scratch, fmt.Sprintf("registry-%d", st.dirs)))
}

func schedServe() workload {
	return workload{
		passSeconds: 2,
		setup: func(env *runEnv) error {
			st := &serveState{cold: map[serveKey][sha256.Size]byte{}}
			env.state = st
			reg, err := st.openRegistry(env)
			if err != nil {
				return err
			}
			st.reg, st.srv = reg, schedreg.NewServer(reg, 1)
			sp := env.tr.begin("setup", 0)
			defer sp.end()
			for wi, w := range serveWorlds {
				for r := range w.ranks() {
					k := serveKey{wi, r}
					rec, _ := st.fetch(env.tr, sp.ID(), k)
					if rec.Code != http.StatusOK {
						return fmt.Errorf("cold fetch %s: status %d: %s", k.url(), rec.Code, rec.Body.String())
					}
					st.keys = append(st.keys, k)
					st.cold[k] = sha256.Sum256(rec.Body.Bytes())
				}
			}
			return nil
		},
		pass: func(env *runEnv, k int) (time.Duration, error) {
			st := env.state.(*serveState)
			rng := env.rng(k)
			sp := env.tr.begin("pass", 0)
			defer sp.end()
			var wall time.Duration
			for range servePassOps {
				key := st.keys[rng.Intn(len(st.keys))]
				rec, d := st.fetch(env.tr, sp.ID(), key)
				wall += d
				env.latencies = append(env.latencies, d.Seconds())
				var err error
				switch {
				case rec.Code != http.StatusOK:
					err = fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
				case sha256.Sum256(rec.Body.Bytes()) != st.cold[key]:
					err = fmt.Errorf("warm body differs from the cold fetch")
				}
				env.done(key.url(), err)
			}
			return wall, nil
		},
		layers: func(env *runEnv) error {
			st := env.state.(*serveState)
			s := st.reg.Stats()
			env.layer["schedreg.hits"] = float64(s.Hits)
			env.layer["schedreg.misses"] = float64(s.Misses)
			env.layer["schedreg.compiles"] = float64(s.Compiles)
			// Direct registry calls on a fresh root: a miss for every key,
			// then a hit for every key.
			reg, err := st.openRegistry(env)
			if err != nil {
				return err
			}
			root := env.tr.begin("direct.schedreg", 0)
			for wi, w := range serveWorlds {
				for r := range w.ranks() {
					sp := env.tr.begin("schedreg.GetOrCompile", root.ID())
					_, err := reg.GetOrCompile(serveKey{wi, r}.key())
					sp.end()
					if err != nil {
						return err
					}
				}
			}
			for wi, w := range serveWorlds {
				for r := range w.ranks() {
					sp := env.tr.begin("schedreg.Lookup", root.ID())
					_, err, ok := reg.Lookup(serveKey{wi, r}.key())
					sp.end()
					if err != nil || !ok {
						return fmt.Errorf("lookup after compile: ok=%v err=%v", ok, err)
					}
				}
			}
			root.end()
			lookups, compiles := env.tr.totals("schedreg.Lookup"), env.tr.totals("schedreg.GetOrCompile")
			hit := median(lookups.Durs) * 1e3
			env.layer["schedreg.hit_ms_p50"] = hit
			env.layer["schedreg.miss_ms_p50"] = median(compiles.Durs) * 1e3
			env.layer["schedreg.handler_ms_p50"] = quantile(env.latencies, 0.5)*1e3 - hit
			env.samples["schedreg.hit_ms_p50"] = lookups.N
			env.samples["schedreg.miss_ms_p50"] = compiles.N
			env.samples["schedreg.handler_ms_p50"] = len(env.latencies)
			if err := directRepairs(env); err != nil {
				return err
			}
			return directSched(env, scalingWorlds(), true)
		},
	}
}
