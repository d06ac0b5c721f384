package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function.
type span struct {
	ID     int64
	Parent int64 // 0 for a root span
	Name   string
	Start  time.Duration // since the tracer started
	End    time.Duration
	// Allocs counts heap objects the whole process allocated during the
	// span. The runtime counts small objects when a span of them is
	// retired, so the figure is exact only summed over many calls.
	Allocs uint64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the end-to-end run pays one
// nil check per call.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t       *tracer
	id      int64
	parent  int64
	name    string
	start   time.Time
	allocs0 uint64
}

// begin starts a span named name under parent (0 for none).
func (t *tracer) begin(name string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.next.Add(1), parent: parent, name: name, start: time.Now(), allocs0: heapAllocs()}
}

// ID returns the span's identifier, the parent of spans it causes.
func (s openSpan) ID() int64 { return s.id }

// end records the span.
func (s openSpan) end() {
	if s.t == nil {
		return
	}
	now := time.Now()
	sp := span{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start.Sub(s.t.t0), End: now.Sub(s.t.t0),
		Allocs: heapAllocs() - s.allocs0,
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// record adds a span whose bounds the caller measured, such as a phase
// that ends when the last of several ranks passes a barrier.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	sp := span{ID: t.next.Add(1), Parent: parent, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	N      int
	Busy   time.Duration
	Allocs uint64
	Durs   []float64 // each span's duration in seconds
}

// totals sums every span named name.
func (t *tracer) totals(name string) spanTotals {
	var out spanTotals
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			d := s.End - s.Start
			out.N++
			out.Busy += d
			out.Allocs += s.Allocs
			out.Durs = append(out.Durs, d.Seconds())
		}
	}
	return out
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceEvent is one complete event of the Chrome trace-event format,
// which Perfetto and chrome://tracing read.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves every span to path as a trace-event file.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	// bufio.Writer keeps the first write error and returns it from Flush.
	w := bufio.NewWriter(f)
	w.WriteString("{\"traceEvents\":[\n")
	for i, s := range t.spans {
		ev := traceEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "allocs": s.Allocs},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

var (
	allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	allocMu     sync.Mutex
)

// heapAllocs returns the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// heapPeak tracks the peak of the heap a run retains: /gc/heap/live:bytes
// read right after a forced collection, at the end of set-up and of each
// pass. Reading it after each op instead reports whatever transient
// garbage the last collection happened to see, which varies from run to
// run with GC timing.
type heapPeak struct {
	sample []metrics.Sample
	peak   uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

// observe collects garbage and samples the live heap; it runs outside
// every timed region.
func (h *heapPeak) observe() {
	// Twice: objects in sync.Pool survive one collection in the victim
	// cache.
	runtime.GC()
	runtime.GC()
	metrics.Read(h.sample)
	h.peak = max(h.peak, h.sample[0].Value.Uint64())
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }
