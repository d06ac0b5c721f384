package schedreg

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"alltoallx/internal/sched"
	"alltoallx/internal/topo"
)

func newTestDaemon(t *testing.T, maxCompile int) (*Registry, *Client) {
	t.Helper()
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, maxCompile))
	t.Cleanup(srv.Close)
	return reg, NewClient(srv.URL)
}

// TestServerFetchRoundTrip: the daemon serves a program byte-identical
// to direct generation, and a repeat fetch is a registry hit.
func TestServerFetchRoundTrip(t *testing.T) {
	c := countSeams(t)
	reg, cl := newTestDaemon(t, 2)
	m := mustMapping(t, 3, 4)

	rp, err := cl.Fetch("torus", 12, m, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.GenerateRank("torus", 12, 5, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRP(t, rp), encodeRP(t, want)) {
		t.Fatal("daemon program differs from direct generation")
	}
	if err := sched.VerifyRank(rp); err != nil {
		t.Fatalf("fetched program fails verification: %v", err)
	}
	if _, err := cl.Fetch("torus", 12, m, 5); err != nil {
		t.Fatal(err)
	}
	c.wantWork(t, "two fetches", 1, 1)
	if st := reg.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss", st)
	}
}

// TestServerRejection: a rejected world comes back as ErrRejected with
// key context — the definitive verdict clients negative-cache.
func TestServerRejection(t *testing.T) {
	_, cl := newTestDaemon(t, 2)
	_, err := cl.Fetch("hypercube", 6, nil, 0)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	for _, frag := range []string{"hypercube", "p6-flat"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("rejection %q does not mention %q", err, frag)
		}
	}
}

// TestServerStats: the stats endpoint reflects registry counters.
func TestServerStats(t *testing.T) {
	_, cl := newTestDaemon(t, 2)
	if _, err := cl.Fetch("ring", 8, nil, 1); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 1 || st.Compiles != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 compile", st)
	}
}

// TestServerAdmissionControl: with one compile slot held by a stuck
// compilation, a second cold request is refused with 503 (the client
// maps it to ErrUnavailable) instead of piling up; warm requests keep
// being served from disk.
func TestServerAdmissionControl(t *testing.T) {
	countSeams(t) // restores seams on cleanup
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Warm one world, then wedge the world gate.
	if _, err := reg.GetOrCompile(KeyFor("ring", 8, nil, 1)); err != nil {
		t.Fatal(err)
	}
	enter, release := make(chan struct{}, 1), make(chan struct{})
	ovw := proveWorld
	proveWorld = func(name string, p int, m *topo.Mapping) error {
		enter <- struct{}{}
		<-release
		return ovw(name, p, m)
	}
	srv := httptest.NewServer(NewServer(reg, 1))
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL)

	done := make(chan error, 1)
	go func() {
		_, err := cl.Fetch("pairwise", 8, nil, 0) // occupies the only slot
		done <- err
	}()
	<-enter

	if _, err := cl.Fetch("direct", 8, nil, 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("saturated daemon: want ErrUnavailable, got %v", err)
	}
	if _, err := cl.Fetch("ring", 8, nil, 1); err != nil {
		t.Fatalf("warm fetch refused under saturation: %v", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("wedged compile finished with %v", err)
	}
	proveWorld = ovw // un-wedge so the next cold compile runs through
	if _, err := cl.Fetch("direct", 8, nil, 0); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
}

// TestServerBatch: one request fetches several ranks; errors are
// per-rank.
func TestServerBatch(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, 2))
	t.Cleanup(srv.Close)

	body, _ := json.Marshal(batchRequest{Gen: "ring", Ranks: 8, Want: []int{0, 3, 8}})
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch answered %s", resp.Status)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Programs) != 3 || len(br.Errors) != 3 {
		t.Fatalf("batch shape: %d programs, %d errors", len(br.Programs), len(br.Errors))
	}
	for i, rank := range []int{0, 3} {
		if br.Errors[i] != "" {
			t.Fatalf("rank %d: %s", rank, br.Errors[i])
		}
		rp, err := sched.DecodeRank(bytes.NewReader(br.Programs[i]))
		if err != nil {
			t.Fatal(err)
		}
		if rp.Rank != rank {
			t.Fatalf("slot %d holds rank %d", i, rp.Rank)
		}
	}
	if br.Errors[2] == "" || !strings.Contains(br.Errors[2], "rank out of range") {
		t.Fatalf("rank 8 error = %q, want out-of-range", br.Errors[2])
	}
}

// TestServerBadRequests: malformed queries are 400s, unknown paths 404.
func TestServerBadRequests(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, 1))
	t.Cleanup(srv.Close)
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/v1/program?gen=ring&rank=0", http.StatusBadRequest},                 // missing ranks
		{"/v1/program?gen=ring&ranks=zoo&rank=0", http.StatusBadRequest},       // non-integer
		{"/v1/program?gen=..%2Fup&ranks=8&rank=0", http.StatusBadRequest},      // path-unsafe gen
		{"/v1/program?gen=ring&ranks=8&rank=0&nodes=2", http.StatusBadRequest}, // nodes without ppn
		{"/v1/nope", http.StatusNotFound},
	} {
		resp, err := http.Get(srv.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s answered %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
	}
}
