package main

import (
	"fmt"
	"runtime"
	"time"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// sim-paper: closed loop of rounds; a round simulates all seven apps
// once at their default size at P=32 with each app's full-affinity
// variant — how the paper's figures are reproduced. It exercises only
// the simulator (engine, core scheduler, cache and memory models).

const simProcs = 32

func simPaper(o opts) (*result, error) {
	res := newResult()
	type reference struct {
		verify       string
		serialCycles int64
	}
	refs := map[string]reference{}
	err := res.setup(o, func() error {
		for _, name := range simApps {
			a, _ := apps.Lookup(name)
			r, err := simReference(name, lastVariant(a), 0)
			if err != nil {
				return err
			}
			s, err := a.RunSerial(0)
			if err != nil {
				return fmt.Errorf("%s serial: %w", name, err)
			}
			refs[name] = reference{r.Verify, s.Cycles}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	first := map[string]apps.Result{}
	var cal calibration
	var roundMS, tracedMS, plainMS []float64
	var wallNS, refsN, tasks, tries, steals, misses, local, home int64
	deadline := time.Now().Add(o.duration())
	minRounds := 1
	if o.trace {
		minRounds = 2 // one untraced and one traced
	}
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		traced := o.trace && round%2 == 1
		job := fmt.Sprintf("round-%d", round)
		t0 := time.Now()
		var roundNS time.Duration
		var spans [][2]time.Time
		ok := true
		for _, name := range simApps {
			a, _ := apps.Lookup(name)
			// Start every app from a collected heap, outside the timed
			// part: left to overlap, the previous app's garbage made peak
			// RSS depend on GC timing.
			runtime.GC()
			cal.sample(2)
			ta := time.Now()
			r, err := a.RunCfg(cool.Config{Processors: simProcs, Seed: o.seed}, lastVariant(a), 0)
			tb := time.Now()
			roundNS += tb.Sub(ta)
			spans = append(spans, [2]time.Time{ta, tb})
			res.attempted++
			msg := ""
			switch f, seen := first[name]; {
			case err != nil:
				msg = err.Error()
			case seen && (r.Cycles != f.Cycles || r.Verify != f.Verify):
				msg = fmt.Sprintf("round %d gave cycles=%d %q, round 0 gave cycles=%d %q", round, r.Cycles, r.Verify, f.Cycles, f.Verify)
			default:
				msg = compareVerify(name, refs[name].verify, r.Verify)
			}
			if msg != "" {
				res.broken(fmt.Sprintf("%s P=%d: %s", name, simProcs, msg))
				ok = false
				continue
			}
			if round == 0 {
				first[name] = r
			}
			t := r.Report.Total
			refsN += t.Refs
			tasks += t.TasksRun
			tries += t.StealTries
			steals += t.StealsLocal + t.StealsRemote
			misses += t.Misses()
			local += t.LocalMisses
			home += t.TasksAtHome
		}
		t1 := time.Now()
		wallNS += int64(roundNS)
		ms := roundNS.Seconds() * 1e3
		if !ok {
			ms = inf
		}
		roundMS = append(roundMS, ms)
		if o.trace {
			if traced {
				tracedMS = append(tracedMS, ms)
				root := o.tr.span(job, "round", 0, t0, t1)
				for i, name := range simApps {
					o.tr.span(job, "app-"+name, root, spans[i][0], spans[i][1])
				}
			} else {
				plainMS = append(plainMS, ms)
			}
		}
	}

	var ratios []float64
	for _, name := range simApps {
		f, ok := first[name]
		if !ok {
			return nil, fmt.Errorf("%s failed in round 0", name)
		}
		s := float64(refs[name].serialCycles) / float64(f.Cycles)
		ratios = append(ratios, s)
		res.layer["sim.speedup."+name] = s
	}
	res.e2e["latency_cal"] = median(roundMS) / cal.unit()
	res.e2e["speedup"] = geomean(ratios)
	q1, med, q3 := quartiles(roundMS)
	res.infof("%d rounds of %d apps at P=%d: round_s_p50=%.4f q1=%.4f q3=%.4f p90=%.4f  sim_speedup_geomean=%.4f",
		len(roundMS), len(simApps), simProcs, med/1e3, q1/1e3, q3/1e3, percentile(roundMS, 90)/1e3, geomean(ratios))
	res.infof("%s  latency_cal=%.3f", cal, res.e2e["latency_cal"])

	res.layer["sim.ns_per_ref"] = frac(wallNS, refsN)
	res.layer["sim.ns_per_task"] = frac(wallNS, tasks)
	res.layer["sim.steal_ok_frac"] = frac(steals, tries)
	res.layer["sim.miss_rate"] = frac(misses, refsN)
	res.layer["sim.local_frac"] = frac(local, misses)
	res.layer["sim.home_frac"] = frac(home, tasks)
	if o.trace {
		res.overhead = median(tracedMS)/median(plainMS) - 1
	}
	return res, nil
}
