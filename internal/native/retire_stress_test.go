package native

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
)

// TestRetireStress is the drain-correctness torture test: 1–3 workers
// retire mid-run (never worker 0 — it carries the root waitfor, where
// Fail events stay deferred) while spawners pump a randomized mix of
// plain, processor-, object-, and task-affinity work. Run under -race
// with -count=3, it hammers the dead-bit/drain protocol against
// concurrent placement and whole-set stealing: a task lost in the
// retirement race shows up as a count mismatch, a split set as
// SetSplits, a residual entry as a non-empty dead queue, and a stale
// stealable hint as a nonzero counter on a drained worker. The deque
// arm additionally exercises the retirement drain through the
// Chase-Lev deque (popBottom) and inbox (swapAll) paths; the mutex arm
// keeps covering the PR 6 locked drain. Each spawner also queues a run
// of tasks naming one hot object, so thieves move object-bound runs in
// bulk while workers retire; the deque arm asserts that they did.
func TestRetireStress(t *testing.T) {
	t.Run("deque", func(t *testing.T) { retireStress(t, nil) })
	t.Run("mutex", func(t *testing.T) { retireStress(t, mutexMode) })
}

func retireStress(t *testing.T, mode func(*Config)) {
	const procs = 12 // three clusters of four
	var runSteals int64
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		nFails := 1 + rng.Intn(3)
		p := &fault.Plan{}
		victims := map[int]bool{}
		for len(victims) < nFails {
			v := 1 + rng.Intn(procs-1) // never worker 0
			if victims[v] {
				continue
			}
			victims[v] = true
			p.Fail(v, int64(200_000+rng.Intn(1_500_000))) // 0.2–1.7ms in
		}
		rt, mon := testRuntime(t, procs, func(cfg *Config) {
			cfg.Faults = p
			if mode != nil {
				mode(cfg)
			}
		})

		const spawners = 16
		const perSpawner = 100
		const hotRun = 25 // leaves per spawner naming its hot object
		affs := make([][]core.Affinity, spawners)
		for i := range affs {
			affs[i] = make([]core.Affinity, perSpawner)
			for j := range affs[i] {
				switch rng.Intn(4) {
				case 0:
					affs[i][j] = core.Affinity{}
				case 1:
					// Hot sets shared across spawners so placements chase
					// homes that retirement keeps moving.
					affs[i][j] = core.Affinity{Kind: core.AffTask, TaskObj: int64(1 + rng.Intn(6)*4096)}
				case 2:
					affs[i][j] = core.Affinity{Kind: core.AffObject, ObjectObj: int64(1 + rng.Intn(32)*4096)}
				case 3:
					affs[i][j] = core.Affinity{Kind: core.AffProcessor, Processor: rng.Intn(procs)}
				}
			}
		}
		var ran [spawners * (perSpawner + hotRun)]int32
		err := rt.Run(func(c *Ctx) {
			c.WaitFor(func() {
				for i := 0; i < spawners; i++ {
					i := i
					c.Spawn("spawner", core.Affinity{Kind: core.AffProcessor, Processor: i % procs}, nil, func(c *Ctx) {
						leaf := func(k int) func(*Ctx) {
							return func(*Ctx) {
								atomic.AddInt32(&ran[k], 1)
								// Keep the run in the milliseconds so the
								// plan's Fail times land mid-flight.
								time.Sleep(10 * time.Microsecond)
							}
						}
						for j, a := range affs[i] {
							c.Spawn("leaf", a, nil, leaf(i*perSpawner+j))
						}
						hot := core.Affinity{Kind: core.AffObject, ObjectObj: int64(1 + i%procs*4096)}
						for j := 0; j < hotRun; j++ {
							c.Spawn("hot", hot, nil, leaf(spawners*perSpawner+i*hotRun+j))
						}
					})
				}
			})
		})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		for v := range victims {
			if !rt.isDead(v) {
				t.Fatalf("seed %d: worker %d never retired (run finished before its Fail time?)", seed, v)
			}
		}
		if got := rt.aliveWorkers(); got != procs-nFails {
			t.Fatalf("seed %d: aliveWorkers = %d, want %d", seed, got, procs-nFails)
		}
		for k, n := range ran {
			if n != 1 {
				t.Fatalf("seed %d: task %d ran %d times, want exactly once", seed, k, n)
			}
		}
		total := mon.Total()
		if want := int64(1 + spawners + len(ran)); total.TasksRun != want {
			t.Fatalf("seed %d: TasksRun=%d want %d", seed, total.TasksRun, want)
		}
		if rt.SetSplits() != 0 {
			t.Fatalf("seed %d: SetSplits=%d want 0", seed, rt.SetSplits())
		}
		runSteals += rt.runSteals.Load()
		if rt.QueuedTasks() != 0 {
			t.Fatalf("seed %d: %d tasks still queued", seed, rt.QueuedTasks())
		}
		// Every queue — dead or alive — must be empty, and the stealable
		// hints must have drained back to zero with them.
		for _, w := range rt.workers {
			if n := w.queued.Load(); n != 0 {
				t.Fatalf("seed %d: worker %d queued hint %d", seed, w.id, n)
			}
		}
		assertWorkerQueuesEmpty(t, rt, fmt.Sprintf("seed %d", seed))
		// Leaves spawned by retired workers finished elsewhere; their
		// records must have been swept off the dead return stacks.
		for v := range victims {
			if !rt.workers[v].ret.empty() {
				t.Fatalf("seed %d: task records stranded on retired worker %d", seed, v)
			}
		}
	}
	t.Logf("bulk object-bound steals over all seeds: %d", runSteals)
	if mode == nil && runSteals == 0 {
		t.Fatal("no bulk object-bound steal happened in any seed")
	}
}
