package cool_test

import (
	"sync/atomic"
	"testing"
	"time"

	cool "github.com/coolrts/cool"
)

// backends lists the execution backends every consistency test runs on.
var backends = []struct {
	name string
	b    cool.Backend
}{
	{"sim", cool.BackendSim},
	{"native", cool.BackendNative},
}

// runWorkload executes a spawn-heavy workload — a mutex-guarded counter
// plus task-affinity sets — and returns the report. It is deliberately
// contended so wake and lock counters have something to count.
func runWorkload(t *testing.T, backend cool.Backend, procs, tasks int) cool.Report {
	t.Helper()
	rt, err := cool.NewRuntime(cool.Config{Processors: procs, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	counter := rt.NewI64(1, 0)
	set := rt.NewI64(8, 0)
	var mu cool.Monitor
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < tasks; i++ {
				i := i
				ctx.Spawn("count", func(c *cool.Ctx) {
					c.Lock(&mu)
					c.AddI64(counter, 0, 1)
					c.Unlock(&mu)
				}, cool.TaskAffinity(set.Addr(i%8)))
			}
		})
	})
	if err != nil {
		t.Fatalf("%v backend: %v", backend, err)
	}
	if got := counter.Data[0]; got != int64(tasks) {
		t.Fatalf("%v backend: counter = %d, want %d", backend, got, tasks)
	}
	return rt.Report()
}

// TestReportCountersConsistent asserts the runtime counters that the
// paper's instrumentation relies on are reported with the same meaning
// on both backends: every spawn becomes exactly one executed task, wake
// counters account for the spawns that found the machine (partially)
// idle, and the fault-path counters stay zero on a healthy run.
func TestReportCountersConsistent(t *testing.T) {
	const procs, tasks = 4, 300
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			r := runWorkload(t, be.b, procs, tasks)
			total := r.Total

			// tasks: the spawned workload plus the main task, each run once.
			if total.TasksRun != tasks+1 {
				t.Errorf("TasksRun = %d, want %d", total.TasksRun, tasks+1)
			}
			if total.Spawns != tasks {
				t.Errorf("Spawns = %d, want %d", total.Spawns, tasks)
			}
			// Per-processor rows must sum to the machine total.
			var perSum int64
			for _, p := range r.Per {
				perSum += p.TasksRun
			}
			if perSum != total.TasksRun {
				t.Errorf("sum of per-processor TasksRun = %d, total = %d", perSum, total.TasksRun)
			}

			// Wakes: both kinds must be non-negative and bounded by what
			// could possibly have triggered them — a spawn, a task
			// becoming runnable again (monitor handoff, scope completion)
			// or a contended lock release wakes at most once each.
			if total.TargetedWakes < 0 || total.BroadcastWakes < 0 {
				t.Errorf("negative wake counters: targeted=%d broadcast=%d",
					total.TargetedWakes, total.BroadcastWakes)
			}
			wakeBudget := total.Spawns + total.TasksRun + total.LockBlocks
			if total.TargetedWakes+total.BroadcastWakes > wakeBudget {
				t.Errorf("wakes %d+%d exceed the %d events that can trigger them",
					total.TargetedWakes, total.BroadcastWakes, wakeBudget)
			}

			// Fault machinery must be silent on a healthy, fault-free run.
			if total.Retries != 0 || total.GaveUp != 0 {
				t.Errorf("healthy run reported Retries=%d GaveUp=%d", total.Retries, total.GaveUp)
			}
			if total.FaultEvents != 0 || total.Redistributed != 0 {
				t.Errorf("healthy run reported FaultEvents=%d Redistributed=%d",
					total.FaultEvents, total.Redistributed)
			}

			// Whole-set stealing is the default: sets must never split.
			if r.SetSplits != 0 {
				t.Errorf("SetSplits = %d, want 0", r.SetSplits)
			}
			if r.Processors != procs {
				t.Errorf("Processors = %d, want %d", r.Processors, procs)
			}
		})
	}
}

// TestWakeCountersObserved asserts each backend actually exercises the
// two-level wakeup scheme on a parallel machine: spawning from a running
// task while other processors idle must produce at least one wake. Wakes
// count only actual token deposits, so a native run can legitimately see
// zero when the spawner outraces its siblings' first park — retry a few
// times rather than assert on one race outcome.
func TestWakeCountersObserved(t *testing.T) {
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			for attempt := 0; attempt < 5; attempt++ {
				r := runWorkload(t, be.b, 8, 400)
				if r.Total.TargetedWakes+r.Total.BroadcastWakes > 0 {
					return
				}
			}
			t.Errorf("no wakes recorded across 5 runs of 400 tasks on an 8-processor machine")
		})
	}
}

// TestNoWakesOnLoneProcessor is the counter-inflation regression guard:
// on a single-processor machine the enqueuing worker is by definition
// running, so the parked mask is empty at every wake decision and no
// token is ever deposited. A wake counter that increments on the
// decision rather than the deposit shows up here as hundreds of
// phantom wakes.
func TestNoWakesOnLoneProcessor(t *testing.T) {
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			r := runWorkload(t, be.b, 1, 400)
			if n := r.Total.TargetedWakes + r.Total.BroadcastWakes; n != 0 {
				t.Errorf("lone-processor run recorded %d wakes (targeted=%d broadcast=%d), want 0",
					n, r.Total.TargetedWakes, r.Total.BroadcastWakes)
			}
		})
	}
}

// TestRetryCountersThroughReport runs a transient-fault workload under a
// retry policy on both backends and asserts the retry counters flow
// through Report with the same meaning: a successful faulted run shows
// the retries it absorbed, never a give-up, and the per-processor rows
// sum to the total.
func TestRetryCountersThroughReport(t *testing.T) {
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			plan := cool.NewFaultPlan().FailTask("flaky", 1)
			rt, err := cool.NewRuntime(cool.Config{
				Processors: 4,
				Backend:    be.b,
				Faults:     plan,
				Retry:      &cool.RetryPolicy{MaxAttempts: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			err = rt.Run(func(ctx *cool.Ctx) {
				ctx.WaitFor(func() {
					for i := 0; i < 8; i++ {
						ctx.Spawn("flaky", func(c *cool.Ctx) { c.Compute(10) })
					}
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			r := rt.Report()
			if r.Total.TasksRun != 9 {
				t.Errorf("TasksRun = %d, want 9 (8 spawns + main, each exactly once)", r.Total.TasksRun)
			}
			if r.Total.Retries == 0 {
				t.Error("fault plan injected transient failures but Report shows Retries = 0")
			}
			if r.Total.GaveUp != 0 {
				t.Errorf("run succeeded but Report shows GaveUp = %d", r.Total.GaveUp)
			}
			var perRetries int64
			for _, p := range r.Per {
				perRetries += p.Retries
			}
			if perRetries != r.Total.Retries {
				t.Errorf("per-processor Retries sum %d != total %d", perRetries, r.Total.Retries)
			}
		})
	}
}

// TestFaultCountersThroughReportNative injects a stall and a worker
// failure into a native run and asserts the fault-path counters Report
// exposes are consistent with the plan: both events counted, the run
// still executes every task exactly once, and retirement never splits a
// task-affinity set. (The simulator side of this contract is covered by
// the root fault tests; this is the native half ISSUE 6 adds.)
func TestFaultCountersThroughReportNative(t *testing.T) {
	const tasks = 200
	plan := cool.NewFaultPlan().
		StallProcessor(2, 0, 100_000).
		FailProcessor(1, 300_000)
	rt, err := cool.NewRuntime(cool.Config{
		Processors: 4,
		Backend:    cool.BackendNative,
		Faults:     plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	set := rt.NewI64(8, 0)
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < tasks; i++ {
				ctx.Spawn("work", func(c *cool.Ctx) {
					// Keep the run in the milliseconds so the 300µs
					// failure lands mid-flight.
					time.Sleep(30 * time.Microsecond)
				}, cool.TaskAffinity(set.Addr(i%8)))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rt.Report()
	if r.Total.TasksRun != tasks+1 {
		t.Errorf("TasksRun = %d, want %d", r.Total.TasksRun, tasks+1)
	}
	// The stall is due at t=0 and must fire; the failure is due well
	// inside the run's minimum duration (200 tasks x 30µs on 4 workers).
	if r.Total.FaultEvents < 2 {
		t.Errorf("FaultEvents = %d, want >= 2 (stall + proc-fail)", r.Total.FaultEvents)
	}
	if r.Total.Retries != 0 || r.Total.GaveUp != 0 {
		t.Errorf("plan has no transient faults but Retries=%d GaveUp=%d",
			r.Total.Retries, r.Total.GaveUp)
	}
	if r.SetSplits != 0 {
		t.Errorf("SetSplits = %d, want 0 after retirement", r.SetSplits)
	}
}

// TestRedistributedCounterThroughReportNative retires a worker whose
// queue is deep by construction, so the retirement drain itself must
// move work and count it on the victim's row. (The plan-consistency
// test above can legitimately see Redistributed == 0: tasks spawned
// after the dead bit lands are rerouted at insert time, which is
// placement, not redistribution.) Every task is pinned to the victim,
// stealing is off so no thief empties its queue first, and the first
// task holds the victim until every task is queued behind it and the
// failure time has passed: the fault fires at the victim's next
// dispatch, with the other tasks still queued. The one timing
// assumption left is that the victim starts its first task before the
// failure time; that is set 100 ms into the run, far beyond the time
// it takes to start, even on a loaded host under -race.
func TestRedistributedCounterThroughReportNative(t *testing.T) {
	const tasks = 80
	const failAt = 100_000_000 // ns
	rt, err := cool.NewRuntime(cool.Config{
		Processors: 4,
		Backend:    cool.BackendNative,
		Sched:      cool.SchedPolicy{NoStealing: true},
		Faults:     cool.NewFaultPlan().FailProcessor(3, failAt),
	})
	if err != nil {
		t.Fatal(err)
	}
	var spawned atomic.Int64
	var held atomic.Bool
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < tasks; i++ {
				ctx.Spawn("pinned", func(c *cool.Ctx) {
					if !held.CompareAndSwap(false, true) {
						return
					}
					for spawned.Load() < tasks || c.Now() <= failAt {
						time.Sleep(50 * time.Microsecond)
					}
				}, cool.OnProcessor(3))
				spawned.Add(1)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rt.Report()
	if r.Total.TasksRun != tasks+1 {
		t.Errorf("TasksRun = %d, want %d", r.Total.TasksRun, tasks+1)
	}
	if r.Total.Redistributed == 0 {
		t.Error("Redistributed = 0, want > 0 (deep pinned queue drained at retirement)")
	}
	if got := r.Per[3].Redistributed; got != r.Total.Redistributed {
		t.Errorf("victim row Redistributed = %d, want all %d (counted on the retired worker)",
			got, r.Total.Redistributed)
	}
	if r.SetSplits != 0 {
		t.Errorf("SetSplits = %d, want 0", r.SetSplits)
	}
}
