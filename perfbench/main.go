// Command perfbench measures the cost of this repository's own software —
// the simulator, the algorithm layer, the schedule compiler and
// verifiers, the schedule registry and the live runtime — in wall time,
// end to end and layer by layer. Run it from the repository root through
// run.sh, which builds it:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every run is a closed loop: one client goroutine issues an operation,
// waits for it and checks its output before issuing the next. There are
// no sockets. A run executes one workload, in a fresh process, because
// core's schedule cache and its verified-world memo are process-global
// and cannot be reset from outside. The seed chooses sizes, order and
// simulator noise seeds; the layers receive only the generated inputs.
// A run makes a fixed number of seed-fixed passes of operations:
// --seconds divided by the workload's nominal pass time on 2 vCPUs, at
// least one, so the work a run measures does not depend on how fast the
// program is.
//
// # Workloads
//
// tune-sweep: the autotune candidate pools (autotune.DefaultCandidates for
// alltoall and alltoallv, less sched:pairwise alltoallv; see
// tuneCandidates) at 8 nodes x 16 ppn on Dane, Amber and Tuolomne. Each
// op is one sim.RunCluster whose body calls core.New or core.NewV,
// barrier-aligns and does one exchange, as bench.Measure does. A pass runs
// both pools (Zipf counts for alltoallv) on every machine; each candidate
// takes the next size of its own seed-chosen permutation of
// SizeGrid(4, 16384). Set-up is the warm-up that runs every candidate
// once at the smallest size, which fills the whole-world schedule cache
// (worlds of at most 128 ranks). Chosen because it is what a2atune and alltoallbench
// spend their time on. It stresses the simulator engine, the algorithm
// layer and sched.Exec; it bypasses sliced compilation, the registry and
// the live runtime.
//
// sched-serve: an in-process schedreg.Server over a fresh
// schedreg.Registry in a scratch directory, driven through ServeHTTP with
// a recorder. Set-up is a cold job: every rank of a 64-rank torus world
// (whole-world path) and of a 256-rank hypercube world (sliced path:
// GenerateRank plus the streamed verifier per rank) fetched through
// /v1/program, which compiles, verifies and persists. The timed ops are
// warm fetches of rank programs drawn uniformly by the seed: read, hash,
// decode, VerifyRank, encode. Chosen because it uses the sched verifier both as a compiler's
// check (set-up) and as a reader (timed), next to the registry's write
// path, so a compile gain that costs reads shows here. It bypasses the
// simulator and the live runtime.
//
// live-exchange: runtime.Run with 2 nodes x 8 ppn (16 rank goroutines).
// Each op is one barrier-aligned Alltoall (pairwise, bruck, node-aware,
// locality-aware, multileader-node-aware, sched:pairwise) or Alltoallv
// (node-aware, sched:pairwise; Zipf counts) at a seed-jittered block size
// from 64 B to 64 KiB (sched:pairwise alltoallv to 256 B; see
// liveVSchedMaxTier); every received byte is verified outside the timed
// region. Chosen because it is the only path that moves real bytes
// (memcpy, mailboxes, goroutine hand-off), the path of the fft, transpose
// and mlshuffle examples. It bypasses the simulator and schedule
// compilation beyond its 16-rank set-up.
//
// Cold bring-up of schedule worlds above 128 ranks through core.New, and
// repairs around a dead rank, are not workloads of their own: their worlds
// cannot repeat in one process (core's caches are process-global), so a
// run would hold a handful of ops, too few for steady percentiles, and
// its work could not grow with the run. Their layers are measured on
// sched-serve: the sliced compile and streamed verifier in its set-up,
// repairs and scaling fits as direct calls in its traced run.
//
// # Metrics
//
// End to end (--trace 0): setup_s (median of three set-ups, two in child
// processes), wall_s (the time to solution of the run's fixed work: the
// summed op wall time of every pass, without the benchmark's own output
// checks), op_p50_ms and op_p90_ms (over every op of the run; the count
// is printed) and peak_heap_mb (the peak of /gc/heap/live:bytes read
// after a forced collection at the end of set-up and of each pass: the
// heap the run retains, which a cache or a leak moves and GC timing does
// not). A failed op, one whose output check fails included, is counted in
// the result's "failed" field; fail_ratio is printed in the report.
//
// Per layer (--trace 1): a span is recorded around every call the
// benchmark makes into a layer's public functions; spans stay in memory
// and are written as a trace-event file when the run ends. The traced run
// also starts an untraced child with the same seed and reports
// trace.overhead_s, its traced minus untraced wall_s. Each per-layer
// metric, the end-to-end metric it should move, and where:
//
//	sim.events, sim.msgs, sim.ns_per_event, sim.allocs_per_msg
//	    -> wall_s, op_p50_ms, op_p90_ms on tune-sweep; nothing on
//	       sched-serve or live-exchange
//	core.construct_s -> op_p50_ms on tune-sweep
//	core.exchange_s -> wall_s, op_p90_ms on tune-sweep
//	core.schedcache.hit_ratio, core.schedcache.evictions
//	    -> setup_s on tune-sweep
//	sched.generate_rank.*, sched.verify.*, sched.verify_full.busy_s,
//	sched.steps, the sched.*.exponent* fits (sched-serve only)
//	    -> setup_s on sched-serve and tune-sweep; op_p50_ms on
//	       sched-serve (through VerifyRank)
//	sched.repair.busy_s, sched.repair_verify.busy_s,
//	sched.repair.rescheduled_ratio (sched-serve only) -> no end-to-end
//	    metric: no workload repairs a world
//	sched.exec.ns_per_round -> op_p90_ms on tune-sweep
//	schedreg.hit_ms_p50, schedreg.miss_ms_p50, schedreg.handler_ms_p50,
//	schedreg.hits, schedreg.misses, schedreg.compiles
//	    -> op_p50_ms and setup_s on sched-serve
//	runtime.msgs_per_op, runtime.bytes_per_op,
//	runtime.memcpy_bytes_per_op, runtime.wait_share,
//	runtime.allocs_per_op -> op_p50_ms, op_p90_ms on live-exchange only
//
// The sched metrics come from direct calls after the timed phase: over
// the workload's own worlds on tune-sweep and live-exchange, over each
// scaled generator at three world sizes on sched-serve. The runtime
// metrics come from a counting comm.Comm wrapper (countcomm.go). A layer
// a workload does not reach reads 0 there.
//
// # Output checks
//
// Simulated seconds, events and messages of every tune-sweep op equal the
// reference in ref/, which covers every input any seed can draw
// (regenerate with `bash perfbench/run.sh -write-ref` after a change that
// is meant to change simulated time). Warm fetches are byte-identical
// (sha256) to the cold ones. Live receive buffers are verified byte for
// byte. In the traced sched-serve run, each repair is an op whose shape
// must equal the structural fields of BENCH_repair.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupChildren is how many extra set-ups an untraced run measures in
// child processes; setup_s is the median of these and its own.
const setupChildren = 2

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	role     string // "" (a full run), "setup" or "single" (no child processes)
	writeRef bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for spans and scratch state")
	flag.StringVar(&o.role, "role", "", "internal: setup (measure set-up only) or single (start no child processes)")
	flag.BoolVar(&o.writeRef, "write-ref", false, "regenerate the simulated-time reference in "+refDir+" and exit")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, stdout io.Writer) error {
	if o.writeRef {
		return writeReferences(refDir)
	}
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	env := &runEnv{opts: o, scratch: scratch, heap: newHeapPeak(), layer: map[string]float64{}, samples: map[string]int{}}
	if o.trace {
		env.tr = newTracer()
	}
	if wl.teardown != nil {
		defer func() {
			if err := wl.teardown(env); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: teardown:", err)
			}
		}()
	}
	if o.role == "setup" {
		d, err := timedSetup(wl, env)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "setup_s %.9f\n", d.Seconds())
		return nil
	}

	var setups []float64
	if !o.trace && o.role == "" {
		for range setupChildren {
			s, err := childSetup(o)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
	}
	var untracedWall float64
	if o.trace && o.role == "" {
		m, err := childUntraced(o)
		if err != nil {
			return err
		}
		untracedWall = m["wall_s"].Value
	}

	d, err := timedSetup(wl, env)
	if err != nil {
		return err
	}
	setups = append(setups, d.Seconds())
	// Flush what set-up wrote (sched-serve's registry, the build's cache)
	// so that kernel writeback does not run inside the timed phase.
	syscall.Sync()
	env.heap.observe()

	if err := timedPhase(wl, env); err != nil {
		return err
	}

	specs := endToEnd
	var values map[string]float64
	if o.trace {
		// The layers' direct calls may add ops of their own, such as the
		// repairs checked against BENCH_repair.json.
		specs = perLayer
		if err := wl.layers(env); err != nil {
			return err
		}
		for _, s := range perLayer {
			if _, ok := env.layer[s.Name]; !ok {
				env.layer[s.Name] = 0 // a layer this workload does not reach
			}
		}
		if o.role == "" {
			env.layer["trace.overhead_s"] = sum(env.passWalls) - untracedWall
		}
		env.layer["trace.spans"] = float64(env.tr.count())
		values = env.layer
	} else {
		values = map[string]float64{
			"setup_s":      median(setups),
			"wall_s":       sum(env.passWalls),
			"op_p50_ms":    quantile(env.latencies, 0.5) * 1e3,
			"op_p90_ms":    quantile(env.latencies, 0.9) * 1e3,
			"peak_heap_mb": env.heap.mb(),
		}
	}

	fmt.Fprintf(stdout, "env workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stdout, "env passes=%d ops=%d latency_samples=%d setups=%d\n",
		len(env.passWalls), env.attempted, len(env.latencies), len(setups))
	fmt.Fprintf(stdout, "env pass_walls_s=%s\n", fmtFloats(env.passWalls))
	fmt.Fprintf(stdout, "fail_ratio %.6f (%d of %d ops failed)\n", ratio(float64(env.failed), float64(env.attempted)), env.failed, env.attempted)
	for _, f := range env.failures {
		fmt.Fprintln(stdout, "failure:", f)
	}
	if env.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	if o.trace {
		spans := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := env.tr.write(spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", env.tr.count(), spans)
	}

	res := result{Correct: env.failed == 0, Attempted: env.attempted, Failed: env.failed}
	samples := env.samples
	samples["setup_s"] = len(setups)
	samples["wall_s"] = len(env.passWalls)
	samples["op_p50_ms"] = len(env.latencies)
	samples["op_p90_ms"] = len(env.latencies)
	if res.Metrics, err = buildMetrics(specs, values); err != nil {
		return err
	}
	return writeResult(stdout, specs, res, samples)
}

// timedSetup runs the workload's set-up and returns its wall time.
func timedSetup(wl workload, env *runEnv) (time.Duration, error) {
	t0 := time.Now()
	if err := wl.setup(env); err != nil {
		return 0, fmt.Errorf("%s set-up: %w", env.opts.workload, err)
	}
	return time.Since(t0), nil
}

// timedPhase runs the workload's passes for --seconds.
func timedPhase(wl workload, env *runEnv) error {
	passes := max(1, int(env.opts.seconds/wl.passSeconds))
	for k := range passes {
		wall, err := wl.pass(env, k)
		if err != nil {
			return fmt.Errorf("%s pass %d: %w", env.opts.workload, k, err)
		}
		env.passWalls = append(env.passWalls, wall.Seconds())
		env.heap.observe()
	}
	return nil
}

// childArgs rebuilds the flags of o for a child process.
func childArgs(o options, role string, trace int) []string {
	return []string{
		"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", o.out, "-role", role,
	}
}

// runChild runs this program again with args and returns its standard
// output; it waits for the child to exit.
func runChild(args []string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	return out, nil
}

// childSetup measures one set-up in a fresh process.
func childSetup(o options) (float64, error) {
	out, err := runChild(childArgs(o, "setup", 0))
	if err != nil {
		return 0, err
	}
	var s float64
	if _, err := fmt.Sscanf(strings.TrimSpace(string(out)), "setup_s %g", &s); err != nil {
		return 0, fmt.Errorf("child set-up printed %q: %w", out, err)
	}
	return s, nil
}

// childUntraced runs the same workload and seed untraced in a fresh
// process and returns its end-to-end metrics.
func childUntraced(o options) (map[string]metricValue, error) {
	out, err := runChild(childArgs(o, "single", 0))
	if err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("untraced child printed %q: %w", last, err)
	}
	if !r.Correct {
		return nil, fmt.Errorf("untraced child: %d of %d ops failed", r.Failed, r.Attempted)
	}
	return r.Metrics, nil
}

// fmtFloats renders xs compactly for the report.
func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, ",")
}
