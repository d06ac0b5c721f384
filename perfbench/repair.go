package main

import (
	"encoding/json"
	"fmt"
	"os"

	"alltoallx/internal/sched"
)

// repairWorlds are the repaired worlds of the traced sched-serve run:
// rows of BENCH_repair.json, whose structural fields each repair must
// reproduce.
var repairWorlds = []struct {
	gen   string
	ranks int
}{{"torus", 256}, {"hypercube", 256}, {"ring", 64}}

// repairSnapshot is the committed repair experiment, read and never
// written, relative to the repository root.
const repairSnapshot = "BENCH_repair.json"

// repairShape is the structural part of a BENCH_repair.json point.
type repairShape struct {
	Gen            string `json:"gen"`
	Ranks          int    `json:"ranks"`
	Dead           int    `json:"dead"`
	Survivors      int    `json:"survivors"`
	Rescheduled    int    `json:"rescheduled"`
	DroppedBlocks  int    `json:"droppedBlocks"`
	ReroutedBlocks int    `json:"reroutedBlocks"`
	Rounds         int    `json:"rounds"`
}

func loadRepairShapes(path string) (map[string]repairShape, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Points []repairShape `json:"points"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	out := map[string]repairShape{}
	for _, p := range doc.Points {
		out[fmt.Sprintf("%s@%d", p.Gen, p.Ranks)] = p
	}
	return out, nil
}

// directRepairs patches each repairWorlds world around its dead rank,
// re-proves it, and checks the repair's shape against BENCH_repair.json;
// each repair is one op of the run, failed if its shape differs. It fills
// the sched.repair metrics.
func directRepairs(env *runEnv) error {
	want, err := loadRepairShapes(repairSnapshot)
	if err != nil {
		return err
	}
	var rescheduled, survivors int
	root := env.tr.begin("direct.repair", 0)
	defer root.end()
	for _, r := range repairWorlds {
		key := fmt.Sprintf("%s@%d", r.gen, r.ranks)
		w, ok := want[key]
		if !ok {
			return fmt.Errorf("%s has no %s point at %d ranks", repairSnapshot, r.gen, r.ranks)
		}
		got, err := repairOnce(env.tr, root.ID(), r.gen, r.ranks, w.Dead)
		if err == nil && got != w {
			err = fmt.Errorf("repair shape %+v, %s has %+v", got, repairSnapshot, w)
		}
		env.done("repair "+key, err)
		rescheduled += got.Rescheduled
		survivors += got.Survivors
	}
	env.layer["sched.repair.busy_s"] = env.tr.totals("sched.Repair").Busy.Seconds()
	env.layer["sched.repair_verify.busy_s"] = env.tr.totals("sched.Repaired.Verify").Busy.Seconds()
	env.layer["sched.repair.rescheduled_ratio"] = ratio(float64(rescheduled), float64(survivors))
	return nil
}

// repairOnce repairs one world around rank dead, verifies the repair and
// returns its shape.
func repairOnce(tr *tracer, parent int64, gen string, ranks, dead int) (repairShape, error) {
	sp := tr.begin("sched.Repair", parent)
	rep, err := sched.Repair(gen, ranks, dead, nil)
	sp.end()
	if err != nil {
		return repairShape{}, err
	}
	sp = tr.begin("sched.Repaired.Verify", parent)
	err = rep.Verify()
	sp.end()
	if err != nil {
		return repairShape{}, err
	}
	rp0, err := rep.Program(0)
	if err != nil {
		return repairShape{}, err
	}
	return repairShape{
		Gen: gen, Ranks: ranks, Dead: dead, Survivors: ranks - 1,
		Rescheduled:    len(rep.RescheduledRanks()),
		DroppedBlocks:  rep.DroppedBlocks(),
		ReroutedBlocks: rep.ReroutedBlocks(),
		Rounds:         len(rp0.Rounds),
	}, nil
}
