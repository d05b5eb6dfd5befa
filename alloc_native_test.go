package cool_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	cool "github.com/coolrts/cool"
)

// maxAllocsPerTask bounds the heap allocations a warm native runtime
// may make per task: the spawn, run and recycle path itself allocates
// nothing, so what remains is the per-run and per-WaitFor fixed cost
// spread over the tasks.
const maxAllocsPerTask = 0.05

// allocsPerTask runs job on rt and returns the process-wide heap
// allocations during the run divided by the tasks it ran.
func allocsPerTask(t *testing.T, rt *cool.Runtime, job func(*cool.Ctx)) float64 {
	t.Helper()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	err := rt.Run(job)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tasks := rt.Report().Total.TasksRun
	if tasks == 0 {
		t.Fatal("no task ran")
	}
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(tasks)
}

// TestNativeSpawnPathAllocationFree asserts that a warm native runtime
// spawns, runs and recycles tasks without heap allocation, on the
// shapes the hot path has: SpawnN bursts naming a task-affinity set and
// an OBJECT operand, single Spawns with OBJECT affinity, and the same
// job again after Reset. The first job only warms the freelists.
func TestNativeSpawnPathAllocationFree(t *testing.T) {
	for _, procs := range []int{1, 2} {
		rt, err := cool.NewRuntime(cool.Config{Processors: procs, Backend: cool.BackendNative})
		if err != nil {
			t.Fatal(err)
		}
		const bursts, width = 40, 200
		cols := make([]int64, width)
		for i := range cols {
			cols[i] = rt.NewF64Pages(1, i%procs).Base
		}
		var sink atomic.Int64
		optBuf := make([]cool.SpawnOpt, 2)
		member := func(c *cool.Ctx, i int) { sink.Add(int64(i)) }
		opts := func(i int) []cool.SpawnOpt {
			optBuf[0] = cool.TaskAffinity(cols[i%8])
			optBuf[1] = cool.ObjectAffinity(cols[i])
			return optBuf
		}
		single := func(c *cool.Ctx) { sink.Add(1) }
		job := func(ctx *cool.Ctx) {
			for b := 0; b < bursts; b++ {
				ctx.WaitFor(func() {
					ctx.SpawnN("burst", width, member, opts)
				})
				ctx.WaitFor(func() {
					for i := 0; i < width; i++ {
						ctx.Spawn("single", single, cool.ObjectAffinity(cols[i]))
					}
				})
			}
		}
		for run := 0; run < 3; run++ {
			if run > 0 {
				if err := rt.Reset(); err != nil {
					t.Fatalf("P=%d Reset: %v", procs, err)
				}
			}
			got := allocsPerTask(t, rt, job)
			if run > 0 && got >= maxAllocsPerTask {
				t.Errorf("P=%d run %d: %.4f heap allocations per task, want < %v", procs, run, got, maxAllocsPerTask)
			}
		}
		if s := rt.SetSplits(); s != 0 {
			t.Errorf("P=%d: SetSplits = %d, want 0", procs, s)
		}
	}
}

// TestNativeRecordsReturnToSpawner has the root, on worker 0, spawn
// bursts pinned to processor 1 and stay busy until worker 1 has run
// every member, so worker 0 allocates every record and worker 1
// completes all of them. Unless finished records travel back to the
// spawner, worker 0's freelist stays dry and every spawn heap-allocates.
func TestNativeRecordsReturnToSpawner(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: cool.BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	const bursts, width = 50, 200
	var ran atomic.Int64
	optBuf := []cool.SpawnOpt{cool.OnProcessor(1)}
	member := func(*cool.Ctx, int) { ran.Add(1) }
	opts := func(int) []cool.SpawnOpt { return optBuf }
	job := func(ctx *cool.Ctx) {
		ran.Store(0)
		for b := 1; b <= bursts; b++ {
			ctx.WaitFor(func() {
				ctx.SpawnN("pinned", width, member, opts)
				// Keep worker 0 from helping: it waits here, not in
				// the WaitFor, until worker 1 has run the whole burst.
				for ran.Load() < int64(b*width) {
					runtime.Gosched()
				}
			})
		}
	}
	for run := 0; run < 3; run++ {
		if run > 0 {
			if err := rt.Reset(); err != nil {
				t.Fatalf("Reset: %v", err)
			}
		}
		got := allocsPerTask(t, rt, job)
		if n := rt.Report().Per[1].TasksRun; n != bursts*width {
			t.Fatalf("run %d: worker 1 ran %d tasks, want all %d", run, n, bursts*width)
		}
		if run > 0 && got >= maxAllocsPerTask {
			t.Errorf("run %d: %.4f heap allocations per task, want < %v (records not returned to the spawner)", run, got, maxAllocsPerTask)
		}
	}
}

// TestNativeMultiObjectSpawnAllocationFree spawns tasks naming two
// sized OBJECT operands homed on different processors: placing each
// one resolves both homes and weighs their bytes (§4.1), which must
// allocate nothing.
func TestNativeMultiObjectSpawnAllocationFree(t *testing.T) {
	for _, procs := range []int{1, 2} {
		rt, err := cool.NewRuntime(cool.Config{Processors: procs, Backend: cool.BackendNative})
		if err != nil {
			t.Fatal(err)
		}
		const bursts, width = 40, 200
		small := rt.NewObjPages(64, 0)
		big := make([]cool.Obj, 8)
		for i := range big {
			big[i] = rt.NewObjPages(4096, i%procs+1)
		}
		var sink atomic.Int64
		task := func(*cool.Ctx) { sink.Add(1) }
		job := func(ctx *cool.Ctx) {
			for b := 0; b < bursts; b++ {
				ctx.WaitFor(func() {
					for i := 0; i < width; i++ {
						o := big[i%len(big)]
						ctx.Spawn("pair", task,
							cool.ObjectAffinitySized(small.Base, small.Size),
							cool.ObjectAffinitySized(o.Base, o.Size))
					}
				})
			}
		}
		for run := 0; run < 3; run++ {
			if run > 0 {
				if err := rt.Reset(); err != nil {
					t.Fatalf("P=%d Reset: %v", procs, err)
				}
				small = rt.NewObjPages(64, 0)
				for i := range big {
					big[i] = rt.NewObjPages(4096, i%procs+1)
				}
			}
			got := allocsPerTask(t, rt, job)
			if run > 0 && got >= maxAllocsPerTask {
				t.Errorf("P=%d run %d: %.4f heap allocations per task, want < %v", procs, run, got, maxAllocsPerTask)
			}
		}
	}
}
