package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"alltoallx/internal/sim"
)

// refTable maps a simOp key to the simulated seconds, events and
// messages the op must produce: making the software faster must never
// change a simulated second.
type refTable map[string][3]float64

// refDir holds the reference files, relative to the repository root the
// benchmark runs from.
const refDir = "perfbench/ref"

func refPath(dir, workload string) string { return filepath.Join(dir, workload+".json") }

func loadRef(dir, workload string) (refTable, error) {
	b, err := os.ReadFile(refPath(dir, workload))
	if err != nil {
		return nil, fmt.Errorf("reading the simulated-time reference: %w", err)
	}
	var t refTable
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", refPath(dir, workload), err)
	}
	return t, nil
}

// check compares an op's simulator counters with the reference.
func (t refTable) check(key string, st sim.Stats) error {
	want, ok := t[key]
	if !ok {
		return fmt.Errorf("no reference for %s", key)
	}
	got := [3]float64{st.VirtualSeconds, float64(st.Events), float64(st.Messages)}
	if got != want {
		return fmt.Errorf("%s simulated (seconds, events, messages) = %v, reference %v", key, got, want)
	}
	return nil
}

// writeReferences simulates every op the simulated workload can draw, for
// any seed, and writes the reference file.
func writeReferences(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t, err := simulateAll(tuneUniverse())
	if err != nil {
		return fmt.Errorf("tune-sweep reference: %w", err)
	}
	if err := saveRef(refPath(dir, "tune-sweep"), t); err != nil {
		return err
	}
	fmt.Printf("tune-sweep: %d reference entries\n", len(t))
	return nil
}

// simulateAll runs ops on two workers.
func simulateAll(ops []simOp) (refTable, error) {
	const workers = 2
	t := refTable{}
	var mu sync.Mutex
	var firstErr error
	next := make(chan simOp)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for op := range next {
				o, err := runSimOp(nil, 0, op)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", op.key(), err)
				}
				t[op.key()] = [3]float64{o.Stats.VirtualSeconds, float64(o.Stats.Events), float64(o.Stats.Messages)}
				mu.Unlock()
			}
		}()
	}
	for _, op := range ops {
		next <- op
	}
	close(next)
	wg.Wait()
	return t, firstErr
}

// saveRef writes one entry per line, sorted, so the file diffs well.
func saveRef(path string, t refTable) error {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("{\n")
	for i, k := range keys {
		v := t[k]
		kb, _ := json.Marshal(k) // a string always marshals
		fmt.Fprintf(w, "%s: [%s, %s, %s]", kb,
			strconv.FormatFloat(v[0], 'g', -1, 64), strconv.FormatFloat(v[1], 'f', -1, 64), strconv.FormatFloat(v[2], 'f', -1, 64))
		if i < len(keys)-1 {
			w.WriteString(",")
		}
		w.WriteString("\n")
	}
	w.WriteString("}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
