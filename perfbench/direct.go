package main

import (
	"fmt"
	"sort"
	"time"

	"alltoallx/internal/costmodel"
	"alltoallx/internal/sched"
	"alltoallx/internal/topo"
)

// wholeWorldRanks is the largest world whose assembled schedule core and
// schedreg compile and verify whole (both packages' slicing threshold).
const wholeWorldRanks = 128

// schedWorld is one (generator, nodes x ppn) schedule world.
type schedWorld struct {
	gen        string
	nodes, ppn int
}

func (w schedWorld) ranks() int { return w.nodes * w.ppn }

func (w schedWorld) mapping() (*topo.Mapping, error) {
	return topo.NewMapping(topo.SapphireRapids(), w.nodes, w.ppn)
}

// directSched calls the schedule layer directly over worlds: every rank's
// GenerateRank streamed through a StreamVerifier, and Generate plus the
// full Verify where the world is small enough to assemble. With fit, it
// fits each scaled generator's compile and verify time against world size
// (costmodel.FitPoints, log-log).
func directSched(env *runEnv, worlds []schedWorld, fit bool) error {
	tr := env.tr
	type point struct{ ranks, genNs, verNs float64 }
	pts := map[string][]point{}
	var steps int64
	root := tr.begin("direct.sched", 0)
	defer root.end()
	for _, w := range worlds {
		m, err := w.mapping()
		if err != nil {
			return err
		}
		p := w.ranks()
		var genD, verD time.Duration
		sv := sched.NewStreamVerifier(p)
		for r := range p {
			t0 := time.Now()
			sp := tr.begin("sched.GenerateRank", root.ID())
			rp, err := sched.GenerateRank(w.gen, p, r, m)
			sp.end()
			t1 := time.Now()
			genD += t1.Sub(t0)
			if err != nil {
				return err
			}
			steps += int64(rp.Steps())
			sp = tr.begin("sched.StreamVerifier.Add", root.ID())
			err = sv.Add(rp)
			sp.end()
			verD += time.Since(t1)
			if err != nil {
				return fmt.Errorf("%s@%d rank %d: %w", w.gen, p, r, err)
			}
		}
		t0 := time.Now()
		sp := tr.begin("sched.StreamVerifier.Finish", root.ID())
		err = sv.Finish()
		sp.end()
		verD += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s@%d: %w", w.gen, p, err)
		}
		pts[w.gen] = append(pts[w.gen], point{float64(p), float64(genD.Nanoseconds()), float64(verD.Nanoseconds())})

		if p <= wholeWorldRanks {
			sp := tr.begin("sched.Generate", root.ID())
			s, err := sched.Generate(w.gen, p, m)
			sp.end()
			if err != nil {
				return err
			}
			sp = tr.begin("sched.Verify", root.ID())
			err = sched.Verify(s)
			sp.end()
			if err != nil {
				return fmt.Errorf("%s@%d full verification: %w", w.gen, p, err)
			}
		}
	}

	gen := tr.totals("sched.GenerateRank")
	add, fin := tr.totals("sched.StreamVerifier.Add"), tr.totals("sched.StreamVerifier.Finish")
	verBusy, verAllocs := add.Busy+fin.Busy, add.Allocs+fin.Allocs
	s := float64(steps)
	env.layer["sched.steps"] = s
	env.layer["sched.generate_rank.busy_s"] = gen.Busy.Seconds()
	env.layer["sched.generate_rank.ns_per_step"] = ratio(float64(gen.Busy.Nanoseconds()), s)
	env.layer["sched.generate_rank.allocs_per_step"] = ratio(float64(gen.Allocs), s)
	env.layer["sched.verify.busy_s"] = verBusy.Seconds()
	env.layer["sched.verify.ns_per_step"] = ratio(float64(verBusy.Nanoseconds()), s)
	env.layer["sched.verify.allocs_per_step"] = ratio(float64(verAllocs), s)
	env.layer["sched.verify_full.busy_s"] = (tr.totals("sched.Generate").Busy + tr.totals("sched.Verify").Busy).Seconds()

	if !fit {
		return nil
	}
	for _, g := range scaledGens {
		ps := pts[g]
		sort.Slice(ps, func(i, j int) bool { return ps[i].ranks < ps[j].ranks })
		var xs, gy, vy []float64
		for _, p := range ps {
			xs = append(xs, p.ranks)
			gy = append(gy, p.genNs)
			vy = append(vy, p.verNs)
		}
		if distinct(xs) < 3 {
			return fmt.Errorf("scaling fit of %s needs 3 world sizes, have %v", g, xs)
		}
		gf, err := costmodel.FitPoints(xs, gy)
		if err != nil {
			return err
		}
		vf, err := costmodel.FitPoints(xs, vy)
		if err != nil {
			return err
		}
		env.layer["sched.generate_rank.exponent."+g] = gf.Slope
		env.layer["sched.generate_rank.exponent_r2."+g] = gf.R2
		env.layer["sched.verify.exponent."+g] = vf.Slope
		env.layer["sched.verify.exponent_r2."+g] = vf.R2
	}
	return nil
}

// scalingWorlds are the worlds of the scaling fits: each scaled generator
// at three sizes from 64 to 256 ranks (pairwise from 128 to 512), two of
// them above the slicing threshold.
func scalingWorlds() []schedWorld {
	var out []schedWorld
	for _, g := range scaledGens {
		for _, nodes := range []int{4, 8, 16} {
			if g == "pairwise" {
				nodes *= 2
			}
			out = append(out, schedWorld{gen: g, nodes: nodes, ppn: 16})
		}
	}
	return out
}

func distinct(xs []float64) int {
	seen := map[float64]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}
