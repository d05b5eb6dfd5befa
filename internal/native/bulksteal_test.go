package native

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coolrts/cool/internal/core"
)

// queueAt queues one record of class naming obj in worker v's locked
// structures, as a spawn homed at v followed by v's inbox drain would.
func queueAt(rt *Runtime, v *worker, name string, class core.Class, obj int64) *task {
	t := rt.newTask(nil)
	t.name, t.fn = name, func(*Ctx) {}
	t.class, t.server = class, v.id
	if class != core.ClassProcessor {
		t.slot, t.affObj = rt.slotOf(obj), obj
	}
	if class == core.ClassTaskSet {
		rt.shardOf(obj).home[obj] = v.id
	}
	rt.insert(t, v.id)
	rt.drainInbox(v)
	return t
}

// queueRun queues n object-bound records naming obj at v.
func queueRun(rt *Runtime, v *worker, obj int64, n int) []*task {
	run := make([]*task, n)
	for i := range run {
		run[i] = queueAt(rt, v, fmt.Sprintf("ob%d", i), core.ClassObjectBound, obj)
	}
	return run
}

// collidingObj returns an object other than obj that hashes to obj's
// task-affinity slot.
func collidingObj(t *testing.T, rt *Runtime, obj int64) int64 {
	t.Helper()
	for o := obj + 64; o < obj+1<<24; o += 64 {
		if rt.slotOf(o) == rt.slotOf(obj) {
			return o
		}
	}
	t.Fatal("no colliding object found")
	return 0
}

// TestObjectRunStealMovesHalf: a thief that takes the object-bound head
// of a backlogged victim's slot run also moves the run's next members,
// so that it takes half of the victim's queue in one steal. The moved
// members land in the thief's matching slot, become its current slot
// and run there back to back in their queued order, keeping their home
// server; the victim keeps the other half in order.
func TestObjectRunStealMovesHalf(t *testing.T) {
	rt, _ := testRuntime(t, 2, nil)
	v, w := rt.workers[0], rt.workers[1]
	const obj = int64(4096)
	slot := rt.slotOf(obj)
	run := queueRun(rt, v, obj, 10)

	if got := rt.stealFrom(v, w); got != run[0] {
		t.Fatalf("stole %v, want the run's head", got)
	}
	if n := w.slots[slot].size; n != 4 {
		t.Fatalf("thief slot holds %d members, want 4 (head + 4 = half of 10)", n)
	}
	if n := v.slots[slot].size; n != 5 {
		t.Fatalf("victim slot holds %d members, want 5", n)
	}
	if w.cur != &w.slots[slot] {
		t.Fatal("thief cur not pointed at the moved run's slot")
	}
	if got := rt.runSteals.Load(); got != 1 {
		t.Fatalf("runSteals = %d, want 1", got)
	}
	if v.queued.Load() != 5 || w.queued.Load() != 4 || rt.queuedTotal.Load() != 9 {
		t.Fatalf("queued v=%d w=%d total=%d, want 5, 4, 9", v.queued.Load(), w.queued.Load(), rt.queuedTotal.Load())
	}
	if v.lockedWork.Load() != 5 || w.lockedWork.Load() != 4 {
		t.Fatalf("lockedWork v=%d w=%d, want 5, 4", v.lockedWork.Load(), w.lockedWork.Load())
	}
	for i := 1; i <= 4; i++ {
		got := rt.take(w)
		if got != run[i] {
			t.Fatalf("thief take %d = %v, want moved member %d back to back", i, got, i)
		}
		if got.server != v.id {
			t.Fatalf("moved member %d server = %d, want its home %d", i, got.server, v.id)
		}
	}
	for i := 5; i < 10; i++ {
		if got := rt.take(v); got != run[i] {
			t.Fatalf("victim take = %v, want member %d in order", got, i)
		}
	}
	if rt.queuedTotal.Load() != 0 {
		t.Fatalf("queuedTotal = %d after draining both workers", rt.queuedTotal.Load())
	}
	assertWorkerQueuesEmpty(t, rt, "after drain")
}

// TestObjectRunStealOnlyFromBacklog: a victim with one queued task
// keeps it, and one with two or three gives up only the head — head plus
// run never exceeds half of its queue.
func TestObjectRunStealOnlyFromBacklog(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		rt, _ := testRuntime(t, 2, nil)
		v, w := rt.workers[0], rt.workers[1]
		const obj = int64(4096)
		run := queueRun(rt, v, obj, n)
		got := rt.stealFrom(v, w)
		switch {
		case n == 1 && got != nil:
			t.Fatalf("n=1: stole %v from a victim with one queued task", got)
		case n > 1 && got != run[0]:
			t.Fatalf("n=%d: stole %v, want the head", n, got)
		}
		if w.queued.Load() != 0 || rt.runSteals.Load() != 0 {
			t.Fatalf("n=%d: thief queued %d, runSteals %d; want no run moved", n, w.queued.Load(), rt.runSteals.Load())
		}
	}
}

// TestObjectRunStealStopsAtOtherWork: the run ends at the first record
// that is not object-bound on the head's object — a task-affinity set
// member, or an object-bound task naming another object that hashes to
// the same slot. Set members are never moved (no split), and a pinned
// task is taken only on its own by the pinned-head rule, never as part
// of a run.
func TestObjectRunStealStopsAtOtherWork(t *testing.T) {
	t.Run("set member", func(t *testing.T) {
		rt, _ := testRuntime(t, 2, nil)
		v, w := rt.workers[0], rt.workers[1]
		const obj, other = int64(4096), int64(1 << 20)
		a := queueRun(rt, v, obj, 2)
		set := queueAt(rt, v, "set", core.ClassTaskSet, obj)
		queueRun(rt, v, obj, 2)
		queueRun(rt, v, other, 6) // deepen the backlog: 11 queued
		if got := rt.stealFrom(v, w); got != a[0] {
			t.Fatalf("stole %v, want the run's head", got)
		}
		slot := rt.slotOf(obj)
		if n := w.slots[slot].size; n != 1 || w.slots[slot].head != a[1] {
			t.Fatalf("thief slot holds %d, want only the member before the set", n)
		}
		if v.slots[slot].head != set {
			t.Fatal("set member no longer heads the victim's slot")
		}
		if rt.SetSplits() != 0 || v.setQueued.Load() != 1 || w.setQueued.Load() != 0 {
			t.Fatalf("SetSplits=%d setQueued v=%d w=%d, want 0, 1, 0", rt.SetSplits(), v.setQueued.Load(), w.setQueued.Load())
		}
	})
	t.Run("other object", func(t *testing.T) {
		rt, _ := testRuntime(t, 2, nil)
		v, w := rt.workers[0], rt.workers[1]
		const obj = int64(4096)
		other := collidingObj(t, rt, obj)
		a := queueRun(rt, v, obj, 3)
		b := queueAt(rt, v, "other", core.ClassObjectBound, other)
		queueRun(rt, v, obj, 6)
		if got := rt.stealFrom(v, w); got != a[0] {
			t.Fatalf("stole %v, want the run's head", got)
		}
		slot := rt.slotOf(obj)
		if n := w.slots[slot].size; n != 2 {
			t.Fatalf("thief slot holds %d, want the 2 members before the other object", n)
		}
		if v.slots[slot].head != b {
			t.Fatal("the other object's task no longer heads the victim's slot")
		}
	})
	t.Run("pinned", func(t *testing.T) {
		rt, _ := testRuntime(t, 2, nil)
		v, w := rt.workers[0], rt.workers[1]
		const obj = int64(4096)
		pin := queueAt(rt, v, "pinned", core.ClassProcessor, 0)
		a := queueRun(rt, v, obj, 6)
		if got := rt.stealFrom(v, w); got != pin {
			t.Fatalf("first steal took %v, want the pinned head on its own", got)
		}
		if w.queued.Load() != 0 {
			t.Fatalf("pinned steal moved %d more tasks", w.queued.Load())
		}
		if got := rt.stealFrom(v, w); got != a[0] {
			t.Fatalf("second steal took %v, want the run's head", got)
		}
		for q := w.slots[rt.slotOf(obj)].head; q != nil; q = q.next {
			if q.class != core.ClassObjectBound {
				t.Fatalf("moved a %v task", q.class)
			}
		}
		if n := w.queued.Load(); n != 2 {
			t.Fatalf("thief holds %d, want 2 (head + 2 = half of 6)", n)
		}
	})
}

// TestObjectRunStealEndToEnd queues a backlog of object-bound tasks
// homed on worker 1 while worker 1 is held busy, so the backlog sits in
// its inbox. Worker 0 must drain all but the last task (a victim with
// one queued task keeps it) in a handful of bulk moves rather than one
// steal per task, and every task must run exactly once.
func TestObjectRunStealEndToEnd(t *testing.T) {
	rt, mon := testRuntime(t, 2, nil)
	const n = 400
	var ran [n]int32
	var total atomic.Int32
	started := make(chan struct{})
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			c.Spawn("hold", core.Affinity{Kind: core.AffProcessor, Processor: 1}, nil, func(*Ctx) {
				close(started)
				deadline := time.Now().Add(10 * time.Second)
				for total.Load() < n-1 && time.Now().Before(deadline) {
					time.Sleep(50 * time.Microsecond)
				}
			})
			<-started
			for i := 0; i < n; i++ {
				i := i
				// Page 1 is homed on worker 1 by testRuntime's Home.
				c.Spawn("ob", core.Affinity{Kind: core.AffObject, ObjectObj: 4096}, nil, func(*Ctx) {
					atomic.AddInt32(&ran[i], 1)
					total.Add(1)
				})
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if r != 1 {
			t.Fatalf("task %d ran %d times", i, r)
		}
	}
	w0 := mon.Per[0]
	if w0.TasksRun < n {
		t.Fatalf("worker 0 ran %d tasks, want the root and at least %d object-bound tasks", w0.TasksRun, n-1)
	}
	steals := w0.StealsLocal + w0.StealsRemote
	if steals > 40 || rt.runSteals.Load() == 0 {
		t.Fatalf("worker 0 made %d steals (%d bulk) for %d tasks, want a few bulk moves", steals, rt.runSteals.Load(), n-1)
	}
	if rt.SetSplits() != 0 {
		t.Fatalf("SetSplits = %d", rt.SetSplits())
	}
	assertWorkerQueuesEmpty(t, rt, "end to end")
}
