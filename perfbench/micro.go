package main

import (
	"fmt"
	"runtime"
	"time"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// The microbenchmarks of the traced run time single operations of the
// cool facade and the native scheduler through the public API only,
// after warm-up iterations, and report each as a median with its
// quartiles.

const microWarm = 5 // discarded leading iterations of every loop

func nativeRuntime(procs int) (*cool.Runtime, error) {
	// The deadline turns a scheduler hang into an error instead of a
	// stuck benchmark.
	return cool.NewRuntime(cool.Config{Processors: procs, Backend: cool.BackendNative, Deadline: int64(30 * time.Second)})
}

// inRun runs body as the root task of a fresh native runtime.
func inRun(procs int, body func(c *cool.Ctx)) error {
	rt, err := nativeRuntime(procs)
	if err != nil {
		return err
	}
	return rt.Run(body)
}

func emptyTask(*cool.Ctx) {}

// micro runs every microbenchmark and stores each median in layer.
func micro(o opts, layer map[string]float64) ([]string, error) {
	var lines []string
	record := func(name string, xs []float64, warm int) {
		xs = xs[warm:]
		q1, med, q3 := quartiles(xs)
		layer[name] = med
		lines = append(lines, fmt.Sprintf("micro %-22s p50=%.4g q1=%.4g q3=%.4g n=%d", name, med, q1, q3, len(xs)))
	}
	nsSince := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) }

	pairProcs := max(2, o.nproc) // ping-pong needs two workers
	var spawn, spawnN, barrier, wake, home, lock []float64
	steps := []struct {
		procs int
		body  func(c *cool.Ctx)
	}{
		{1, func(c *cool.Ctx) { // empty-task Spawn at P=1, tasks drained by WaitFor
			const k = 1000
			for i := 0; i < microWarm+40; i++ {
				c.WaitFor(func() {
					t0 := time.Now()
					for j := 0; j < k; j++ {
						c.Spawn("empty", emptyTask)
					}
					spawn = append(spawn, nsSince(t0)/k)
				})
			}
		}},
		{1, func(c *cool.Ctx) { // uncontended monitor Lock+Unlock
			const k = 10000
			m := c.Runtime().NewMonitor(0)
			for i := 0; i < microWarm+40; i++ {
				t0 := time.Now()
				for j := 0; j < k; j++ {
					c.Lock(m)
					c.Unlock(m)
				}
				lock = append(lock, nsSince(t0)/k)
			}
		}},
		{o.nproc, func(c *cool.Ctx) { // 256-task SpawnN inside WaitFor, per task
			const n = 256
			for i := 0; i < microWarm+200; i++ {
				t0 := time.Now()
				c.WaitFor(func() { c.SpawnN("empty", n, func(*cool.Ctx, int) {}, nil) })
				spawnN = append(spawnN, nsSince(t0)/n)
			}
		}},
		{o.nproc, func(c *cool.Ctx) { // WaitFor round of nproc trivial tasks
			for i := 0; i < microWarm+500; i++ {
				t0 := time.Now()
				c.WaitFor(func() {
					for j := 0; j < o.nproc; j++ {
						c.Spawn("trivial", emptyTask)
					}
				})
				barrier = append(barrier, nsSince(t0)/1e3)
			}
		}},
		{pairProcs, func(c *cool.Ctx) { // cross-worker ping-pong hop
			const hops = 200
			var hop func(k int) func(*cool.Ctx)
			hop = func(k int) func(*cool.Ctx) {
				return func(cc *cool.Ctx) {
					if k > 0 {
						cc.Spawn("hop", hop(k-1), cool.OnProcessor(1-cc.ProcID()%2))
					}
				}
			}
			for i := 0; i < microWarm+40; i++ {
				t0 := time.Now()
				c.WaitFor(func() { c.Spawn("hop", hop(hops), cool.OnProcessor(1)) })
				wake = append(wake, nsSince(t0)/1e3/hops)
			}
		}},
		{o.nproc, func(c *cool.Ctx) { // Ctx.Home from tasks on all workers at once
			const k = 10000
			arr := c.NewF64(4096)
			per := make([]float64, o.nproc)
			sink := make([]int, o.nproc)
			for i := 0; i < microWarm+20; i++ {
				c.WaitFor(func() {
					c.SpawnN("home", o.nproc, func(cc *cool.Ctx, w int) {
						t0 := time.Now()
						for j := 0; j < k; j++ {
							sink[w] += cc.Home(arr.Addr(j % arr.Len()))
						}
						per[w] = nsSince(t0) / k
					}, func(w int) []cool.SpawnOpt { return []cool.SpawnOpt{cool.OnProcessor(w)} })
				})
				home = append(home, per...)
			}
		}},
	}
	for _, s := range steps {
		if err := inRun(s.procs, s.body); err != nil {
			return nil, err
		}
	}
	record("cool.spawn_ns", spawn, microWarm)
	record("cool.spawnn_ns", spawnN, microWarm)
	record("cool.barrier_us", barrier, microWarm)
	record("cool.wake_us", wake, microWarm)
	record("cool.home_ns", home, microWarm*o.nproc) // one sample per worker per iteration
	record("cool.lock_ns", lock, microWarm)

	// Cold NewRuntime(P=2); each runtime then runs an empty program so
	// its workers are joined before the next one is built.
	var newRT, reset, allocs, prepare []float64
	for i := 0; i < microWarm+40; i++ {
		t0 := time.Now()
		rt, err := nativeRuntime(2)
		if err != nil {
			return nil, err
		}
		newRT = append(newRT, nsSince(t0)/1e3)
		if err := rt.Run(emptyTask); err != nil {
			return nil, err
		}
	}
	record("cool.newruntime_us", newRT, microWarm)

	// Reset after a small catalog job.
	rt, err := nativeRuntime(2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < microWarm+40; i++ {
		if _, err := apps.RunCatalogOn(rt, "gauss", "small"); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := rt.Reset(); err != nil {
			return nil, err
		}
		reset = append(reset, nsSince(t0)/1e3)
	}
	record("cool.reset_us", reset, microWarm)

	// Heap allocations per task of the native-fine operation.
	gauss, _ := apps.Lookup("gauss")
	var ms0, ms1 runtime.MemStats
	for i := 0; i < microWarm+10; i++ {
		runtime.ReadMemStats(&ms0)
		r, err := runGauss(gauss, o.nproc, o.seed)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(r.Report.Total.TasksRun))
	}
	record("cool.allocs_per_task", allocs, microWarm)

	for i := 0; i < microWarm+20; i++ {
		t0 := time.Now()
		if _, err := apps.PrepareCatalog("pancho", "small"); err != nil {
			return nil, err
		}
		prepare = append(prepare, nsSince(t0)/1e6)
	}
	record("apps.prepare_ms", prepare, microWarm)
	return lines, nil
}
