package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run: what a user of the
// software waits for or pays. Failed operations are not a metric: every
// run reports them as the result's "attempted" and "failed" counts, and
// fail_ratio is printed in the report above the result line.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// scaledGens are the generators whose compile and verify costs are fitted
// against world size in the sched-serve traced run.
var scaledGens = []string{"pairwise", "bruck", "torus", "hypercube"}

// perLayer are the metrics of a traced run. A layer a workload does not
// reach reads 0 on that workload.
var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{"sim.events", "count"},
		{"sim.msgs", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.allocs_per_msg", "count"},
		{"core.construct_s", "s"},
		{"core.exchange_s", "s"},
		{"core.schedcache.hit_ratio", "ratio"},
		{"core.schedcache.evictions", "count"},
		{"sched.generate_rank.busy_s", "s"},
		{"sched.generate_rank.ns_per_step", "ns"},
		{"sched.generate_rank.allocs_per_step", "count"},
		{"sched.verify.busy_s", "s"},
		{"sched.verify.ns_per_step", "ns"},
		{"sched.verify.allocs_per_step", "count"},
		{"sched.verify_full.busy_s", "s"},
		{"sched.repair.busy_s", "s"},
		{"sched.repair_verify.busy_s", "s"},
		{"sched.repair.rescheduled_ratio", "ratio"},
		{"sched.exec.ns_per_round", "ns"},
		{"sched.steps", "count"},
	}
	for _, g := range scaledGens {
		ms = append(ms,
			metricSpec{"sched.generate_rank.exponent." + g, "1"},
			metricSpec{"sched.generate_rank.exponent_r2." + g, "1"},
			metricSpec{"sched.verify.exponent." + g, "1"},
			metricSpec{"sched.verify.exponent_r2." + g, "1"},
		)
	}
	return append(ms,
		metricSpec{"schedreg.hit_ms_p50", "ms"},
		metricSpec{"schedreg.miss_ms_p50", "ms"},
		metricSpec{"schedreg.handler_ms_p50", "ms"},
		metricSpec{"schedreg.hits", "count"},
		metricSpec{"schedreg.misses", "count"},
		metricSpec{"schedreg.compiles", "count"},
		metricSpec{"runtime.msgs_per_op", "count"},
		metricSpec{"runtime.bytes_per_op", "B"},
		metricSpec{"runtime.memcpy_bytes_per_op", "B"},
		metricSpec{"runtime.wait_share", "ratio"},
		metricSpec{"runtime.allocs_per_op", "count"},
		metricSpec{"trace.overhead_s", "s"},
		metricSpec{"trace.spans", "count"},
	)
}()

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildMetrics fills every metric of specs from values, in order, and
// fails if a value is missing or was never named: a run reports exactly
// the metrics BENCHMARK.json declares.
func buildMetrics(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric%s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric%s is %v", s.Name, v)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric%s is not declared", name)
		}
	}
	return out, nil
}

// writeResult prints the metrics one per line, then the result object as
// the last line.
func writeResult(w io.Writer, specs []metricSpec, r result, samples map[string]int) error {
	for _, s := range specs {
		v := r.Metrics[s.Name]
		line := fmt.Sprintf("metric %-42s %16.6f %s", s.Name, v.Value, v.Unit)
		if n, ok := samples[s.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
