package main

import (
	"fmt"
	"math/rand"
	"time"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// native-fine: gauss Task+Object at N=256 on the native backend, one
// closed-loop client alternating P=nproc and P=1 runs. Each operation is
// cool.NewRuntime followed by App.RunOn; 32,641 tiny tasks and 255
// WaitFor barriers per run make spawn/steal/park-wake cost dominate.

const (
	gaussN       = 256
	gaussVariant = "Task+Object"
)

// runGauss is one native-fine operation: a cold runtime and one run.
func runGauss(app apps.App, procs int, seed int64) (apps.Result, error) {
	rt, err := cool.NewRuntime(cool.Config{Processors: procs, Backend: cool.BackendNative, Seed: seed})
	if err != nil {
		return apps.Result{}, err
	}
	return app.RunOn(rt, gaussVariant, gaussN)
}

func nativeFine(o opts) (*result, error) {
	app, _ := apps.Lookup("gauss")
	res := newResult()
	var ref apps.Result
	procs := []int{o.nproc, 1}

	// check counts one run and returns whether it was correct. A wrong
	// P=1 run has a serial schedule: no race can excuse it.
	check := func(what string, p int, r apps.Result, err error) bool {
		res.attempted++
		msg := ""
		if err != nil {
			msg = err.Error()
		} else {
			msg = compareVerify("gauss", ref.Verify, r.Verify)
		}
		switch {
		case msg == "":
			return true
		case p == 1:
			res.broken(fmt.Sprintf("%s P=%d: %s", what, p, msg))
		default:
			res.fail(fmt.Sprintf("%s P=%d: %s", what, p, msg))
		}
		return false
	}
	err := res.setup(o, func() error {
		r, err := simReference("gauss", gaussVariant, gaussN)
		if err != nil {
			return err
		}
		ref = r
		for i := 0; i < 3; i++ { // warm-up: heap, freelists, page faults
			for _, p := range procs {
				r, err := runGauss(app, p, o.seed)
				check("warm-up gauss", p, r, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.seed))
	var times = map[int][]float64{} // P -> run ms (+Inf when failed)
	var cal calibration
	var tracedMS, plainMS []float64 // P=nproc runs, traced run only
	var tasksRun, stolen, tries, home, runsN int64
	var idle, cycles, wakes, contd int64
	deadline := time.Now().Add(o.duration())
	for pair := 0; time.Now().Before(deadline) || pair < 2; pair++ {
		order := procs
		if rng.Intn(2) == 1 { // interleave, randomizing which side runs first
			order = []int{procs[1], procs[0]}
		}
		traced := o.trace && pair%2 == 1
		cal.sample(1)
		for _, p := range order {
			job := fmt.Sprintf("run-%d-p%d", pair, p)
			t0 := time.Now()
			rt, err := cool.NewRuntime(cool.Config{Processors: p, Backend: cool.BackendNative, Seed: o.seed})
			t1 := time.Now()
			var r apps.Result
			if err == nil {
				r, err = app.RunOn(rt, gaussVariant, gaussN)
			}
			t2 := time.Now()
			ms := t2.Sub(t0).Seconds() * 1e3
			if !check("gauss", p, r, err) {
				ms = inf
			}
			times[p] = append(times[p], ms)
			if traced {
				root := o.tr.span(job, "run", 0, t0, t2)
				o.tr.span(job, "newruntime", root, t0, t1)
				o.tr.span(job, "runon", root, t1, t2)
			}
			if p != o.nproc || err != nil {
				continue
			}
			if o.trace {
				if traced {
					tracedMS = append(tracedMS, ms)
				} else {
					plainMS = append(plainMS, ms)
				}
			}
			t := r.Report.Total
			runsN++
			tasksRun += t.TasksRun
			stolen += t.StealsLocal + t.StealsRemote
			tries += t.StealTries
			home += t.TasksAtHome
			idle += r.Report.IdleCycles
			cycles += r.Report.Cycles * int64(r.Report.Processors)
			wakes += t.TargetedWakes + t.BroadcastWakes
			contd += t.LockContention
		}
	}

	pn, p1 := times[o.nproc], times[1]
	res.e2e["latency_cal"] = median(pn) / cal.unit()
	res.e2e["speedup"] = median(p1) / median(pn)
	res.infof("gauss N=%d %s: %d runs at P=%d, %d at P=1", gaussN, gaussVariant, len(pn), o.nproc, len(p1))
	res.infof("run_ms_p50=%.3f run_ms_p90=%.3f (P=%d)  p1_run_ms_p50=%.3f  speedup=%.4f",
		median(pn), percentile(pn, 90), o.nproc, median(p1), median(p1)/median(pn))
	res.infof("%s  latency_cal=%.4f  tasks_per_s=%.0f", cal, res.e2e["latency_cal"], frac(tasksRun, runsN)/(median(pn)/1e3))

	res.layer["native.stolen_frac"] = frac(stolen, tasksRun)
	res.layer["native.steal_ok_frac"] = frac(stolen, tries)
	res.layer["native.home_frac"] = frac(home, tasksRun)
	res.layer["native.idle_frac"] = frac(idle, cycles)
	res.layer["native.wakes_per_ktask"] = 1e3 * frac(wakes, tasksRun)
	res.layer["native.lock_contention_per_ktask"] = 1e3 * frac(contd, tasksRun)
	res.layer["native.tasks_per_run"] = frac(tasksRun, runsN)
	if o.trace {
		res.overhead = median(tracedMS)/median(plainMS) - 1
	}
	return res, nil
}
