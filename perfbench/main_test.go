package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"alltoallx/internal/core"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDeclaredMetricsMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, c := range []struct {
		kind     string
		declared []metricSpec
		file     []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
	}{{"end_to_end", endToEnd, f.EndToEnd}, {"per_layer", perLayer, f.PerLayer}} {
		if len(c.declared) != len(c.file) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", c.kind, len(c.declared), len(c.file))
		}
		for i, m := range c.declared {
			if m.Name != c.file[i].Name || m.Unit != c.file[i].Unit {
				t.Errorf("%s[%d]: %s %s here, %s %s in BENCHMARK.json", c.kind, i, m.Name, m.Unit, c.file[i].Name, c.file[i].Unit)
			}
		}
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "tune-sweep,sched-serve,live-exchange"; got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("workload %s is not implemented", n)
		}
	}
}

func TestNamesAreWellFormed(t *testing.T) {
	re := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var names []string
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		names = append(names, m.Name)
	}
	names = append(names, workloadNames()...)
	seen := map[string]bool{}
	for _, n := range names {
		if !re.MatchString(n) {
			t.Errorf("name %q does not match %s", n, re)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

// lastResult decodes the result line a run printed.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

// TestRunEmitsEveryMetric runs the live workload for one short pass,
// untraced and traced, and checks each metric of BENCHMARK.json is
// printed with its unit.
func TestRunEmitsEveryMetric(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		o := options{workload: "live-exchange", seed: 3, seconds: 1e-3, trace: trace,
			out: t.TempDir(), role: "single"}
		if err := run(o, &out); err != nil {
			t.Fatal(err)
		}
		r := lastResult(t, out.String())
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d\n%s", trace, r.Correct, r.Failed, r.Attempted, out.String())
		}
		want := f.EndToEnd
		if trace {
			want = f.PerLayer
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics printed, %d declared", trace, len(r.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s printed as %+v (present %v), want unit %s", trace, m.Name, got, ok, m.Unit)
			}
		}
	}
}

func TestCorruptLiveBufferFailsOp(t *testing.T) {
	env := &runEnv{opts: options{seed: 5}, heap: newHeapPeak(), layer: map[string]float64{}}
	wl := workloads["live-exchange"]
	if err := wl.setup(env); err != nil {
		t.Fatal(err)
	}
	defer wl.teardown(env)
	st := env.state.(*liveState)
	st.corrupt = func(rank int, recv []byte) {
		if rank == 3 {
			recv[0] ^= 1
		}
	}
	if _, err := st.op(env, liveCmd{algo: 0, block: 64, salt: 9}); err == nil {
		t.Fatal("a flipped byte in a receive buffer passed the check")
	}
	st.corrupt = nil
	if _, err := st.op(env, liveCmd{algo: 0, block: 64, salt: 9}); err != nil {
		t.Fatalf("clean op failed: %v", err)
	}
}

func TestPerturbedReferenceFailsOp(t *testing.T) {
	ref, err := loadRef("ref", "tune-sweep")
	if err != nil {
		t.Fatal(err)
	}
	c := tuneCandidates(core.OpAlltoall)[0]
	op := tuneOp("Dane", core.OpAlltoall, c, 4, tuneNoise[0])
	env := &runEnv{heap: newHeapPeak(), layer: map[string]float64{}}
	st := &tuneState{ref: ref}
	st.runOp(env, 0, op)
	if env.failed != 0 {
		t.Fatalf("op failed against the committed reference: %v", env.failures)
	}
	v := ref[op.key()]
	v[0] = math.Nextafter(v[0], math.Inf(1))
	ref[op.key()] = v
	st.runOp(env, 0, op)
	if env.attempted != 2 || env.failed != 1 {
		t.Fatalf("perturbed reference: attempted=%d failed=%d, want 2 and 1", env.attempted, env.failed)
	}
}
