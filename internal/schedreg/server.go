package schedreg

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Server serves a Registry over HTTP/JSON — the handler behind
// cmd/a2aschedd. Endpoints:
//
//	GET  /healthz                     liveness probe
//	GET  /v1/stats                    registry counters + admission state
//	GET  /v1/program?gen=&ranks=&nodes=&ppn=&rank=
//	POST /v1/batch                    {"gen","ranks","nodes","ppn","want":[...]}
//
// Requests served from disk never queue; requests that would compile
// pass admission control first — a bounded in-flight-compilation
// semaphore — and are refused with 503 + Retry-After when the daemon is
// saturated, so a thundering herd of cold worlds degrades into polite
// retries instead of a compilation pile-up. Duplicate in-flight keys
// coalesce inside the registry regardless.
type Server struct {
	reg *Registry
	sem chan struct{}
}

// NewServer wraps reg with admission control allowing at most
// maxCompile concurrent compile-path requests (minimum 1).
func NewServer(reg *Registry, maxCompile int) *Server {
	if maxCompile < 1 {
		maxCompile = 1
	}
	return &Server{reg: reg, sem: make(chan struct{}, maxCompile)}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch {
	case req.URL.Path == "/healthz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	case req.URL.Path == "/v1/stats" && req.Method == http.MethodGet:
		s.handleStats(w)
	case req.URL.Path == "/v1/program" && req.Method == http.MethodGet:
		s.handleProgram(w, req)
	case req.URL.Path == "/v1/batch" && req.Method == http.MethodPost:
		s.handleBatch(w, req)
	default:
		http.Error(w, "schedreg: unknown endpoint", http.StatusNotFound)
	}
}

// serverStats is the /v1/stats payload.
type serverStats struct {
	Stats
	CompileSlots   int `json:"compile_slots"`
	CompilesActive int `json:"compiles_active"`
}

func (s *Server) handleStats(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, serverStats{
		Stats:          s.reg.Stats(),
		CompileSlots:   cap(s.sem),
		CompilesActive: len(s.sem),
	})
}

func (s *Server) handleProgram(w http.ResponseWriter, req *http.Request) {
	k, err := keyFromQuery(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rp, err, ok := s.reg.Lookup(k)
	if !ok {
		select {
		case s.sem <- struct{}{}:
			rp, err = s.reg.GetOrCompile(k)
			<-s.sem
		default:
			w.Header().Set("Retry-After", "1")
			http.Error(w, fmt.Sprintf("schedreg: %s: all %d compile slots busy", k, cap(s.sem)), http.StatusServiceUnavailable)
			return
		}
	}
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := rp.Encode(w); err != nil {
		// Headers are gone; all we can do is drop the connection mid-body.
		return
	}
}

// batchRequest asks for several ranks of one world in one round trip —
// the shape an SPMD job's ranks-per-node prefetch produces.
type batchRequest struct {
	Gen   string `json:"gen"`
	Ranks int    `json:"ranks"`
	Nodes int    `json:"nodes"`
	PPN   int    `json:"ppn"`
	Want  []int  `json:"want"`
}

// batchResponse aligns with Want: Programs[i] is nil iff Errors[i] is
// non-empty.
type batchResponse struct {
	Programs []json.RawMessage `json:"programs"`
	Errors   []string          `json:"errors"`
}

// batchMax bounds one batch request; a full exascale node's worth of
// ranks fits comfortably.
const batchMax = 1024

func (s *Server) handleBatch(w http.ResponseWriter, req *http.Request) {
	var br batchRequest
	if err := json.NewDecoder(req.Body).Decode(&br); err != nil {
		http.Error(w, fmt.Sprintf("schedreg: decoding batch request: %v", err), http.StatusBadRequest)
		return
	}
	if len(br.Want) == 0 || len(br.Want) > batchMax {
		http.Error(w, fmt.Sprintf("schedreg: batch wants %d ranks, allowed 1..%d", len(br.Want), batchMax), http.StatusBadRequest)
		return
	}
	// One admission slot covers the whole batch: its compilations are for
	// one world and coalesce inside the registry.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("schedreg: batch for %s: all %d compile slots busy", br.Gen, cap(s.sem)), http.StatusServiceUnavailable)
		return
	}
	resp := batchResponse{
		Programs: make([]json.RawMessage, len(br.Want)),
		Errors:   make([]string, len(br.Want)),
	}
	for i, rank := range br.Want {
		k := Key{Gen: br.Gen, Ranks: br.Ranks, Nodes: br.Nodes, PPN: br.PPN, Rank: rank}
		rp, err := s.reg.GetOrCompile(k)
		if err != nil {
			resp.Errors[i] = err.Error()
			continue
		}
		// writeJSON compacts each program and re-indents it with the
		// rest of the response, so the program's own layout never shows.
		resp.Programs[i] = rp.AppendJSON(nil)
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusFor maps registry errors to HTTP: a rejection is a definitive
// client-cacheable verdict (422), anything else is a server fault.
func statusFor(err error) int {
	if errors.Is(err, ErrRejected) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

func keyFromQuery(req *http.Request) (Key, error) {
	q := req.URL.Query()
	var k Key
	k.Gen = q.Get("gen")
	for _, f := range []struct {
		name string
		dst  *int
		req  bool
	}{
		{"ranks", &k.Ranks, true},
		{"rank", &k.Rank, true},
		{"nodes", &k.Nodes, false},
		{"ppn", &k.PPN, false},
	} {
		v := q.Get(f.name)
		if v == "" {
			if f.req {
				return Key{}, fmt.Errorf("schedreg: missing query parameter %q", f.name)
			}
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return Key{}, fmt.Errorf("schedreg: query parameter %s=%q is not an integer", f.name, v)
		}
		*f.dst = n
	}
	return k, k.validate()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}
