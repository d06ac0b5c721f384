package trace

import (
	"maps"
	"testing"
)

func TestRecorderAccumulates(t *testing.T) {
	t.Parallel()
	now := 0.0
	r := NewRecorder(func() float64 { return now })
	stop := r.Time(PhaseGather)
	now = 2.5
	stop()
	stop = r.Time(PhaseGather)
	now = 3.0
	stop()
	if got := r.Get(PhaseGather); got != 3.0 {
		t.Errorf("accumulated gather = %g, want 3.0", got)
	}
	r.Add(PhaseInter, 1.25)
	if got := r.Get(PhaseInter); got != 1.25 {
		t.Errorf("Add: %g", got)
	}
	snap := r.Snapshot()
	if snap[PhaseGather] != 3.0 || snap[PhaseInter] != 1.25 {
		t.Errorf("snapshot = %v", snap)
	}
	// Snapshot must be a copy.
	snap[PhaseGather] = 99
	if r.Get(PhaseGather) != 3.0 {
		t.Error("snapshot aliases recorder state")
	}
	r.Reset()
	if r.Get(PhaseGather) != 0 {
		t.Error("reset did not clear")
	}
}

// TestRecorderSnapshotExact: slot agrees with declared, and Snapshot
// holds exactly the phases recorded since Reset, declared or not,
// including ones that accrued zero time.
func TestRecorderSnapshotExact(t *testing.T) {
	t.Parallel()
	for i, p := range declared {
		if slot(p) != i {
			t.Fatalf("slot(%q) = %d, want %d", p, slot(p), i)
		}
	}
	r := NewRecorder(func() float64 { return 0 })
	custom := Phase("custom")
	r.Add(PhaseReduce, 0)
	r.Add(custom, 0.5)
	r.Add(PhaseTotal, 2)
	want := map[Phase]float64{PhaseReduce: 0, custom: 0.5, PhaseTotal: 2}
	if got := r.Snapshot(); !maps.Equal(got, want) {
		t.Errorf("snapshot = %v, want %v", got, want)
	}
	if r.Get(custom) != 0.5 || r.Get(PhaseTotal) != 2 || r.Get(PhaseGather) != 0 {
		t.Errorf("Get: custom %g, total %g, gather %g", r.Get(custom), r.Get(PhaseTotal), r.Get(PhaseGather))
	}
	r.Reset()
	if got := r.Snapshot(); len(got) != 0 || r.Get(custom) != 0 {
		t.Errorf("after Reset: snapshot %v, custom %g", got, r.Get(custom))
	}
	r.Add(PhaseInter, 1)
	if got := r.Snapshot(); !maps.Equal(got, map[Phase]float64{PhaseInter: 1}) {
		t.Errorf("after Reset and Add: snapshot = %v", got)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	t.Parallel()
	var r *Recorder
	r.Reset()
	r.Time(PhaseTotal)()
	r.Add(PhaseIntra, 1)
	if r.Get(PhaseIntra) != 0 || r.Snapshot() != nil {
		t.Error("nil recorder misbehaved")
	}
}

func TestMaxMerge(t *testing.T) {
	t.Parallel()
	merged := MaxMerge([]map[Phase]float64{
		{PhaseGather: 1, PhaseInter: 5},
		{PhaseGather: 3, PhaseIntra: 2},
		nil,
	})
	if merged[PhaseGather] != 3 || merged[PhaseInter] != 5 || merged[PhaseIntra] != 2 {
		t.Errorf("merged = %v", merged)
	}
}

func TestSortedPhases(t *testing.T) {
	t.Parallel()
	phases := SortedPhases(map[Phase]float64{PhaseTotal: 1, PhaseGather: 2, PhaseInter: 3})
	want := []Phase{PhaseGather, PhaseInter, PhaseTotal}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", phases, want)
		}
	}
}
