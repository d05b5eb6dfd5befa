package native

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/coolrts/cool/internal/core"
)

// TestRecordRecycling walks the record recycling rules one step at a
// time: a record completed by a foreign worker rides its owner's return
// stack home and is the next record the owner hands out; a record
// completed by its owner goes straight onto the owner's freelist; a
// record whose owner has retired is adopted by the worker that ran it
// instead of being stranded; and the facade slot survives every
// recycling while the rest of the record is zeroed.
func TestRecordRecycling(t *testing.T) {
	rt, _ := testRuntime(t, 2, nil)
	w0, w1 := rt.workers[0], rt.workers[1]

	a := rt.newTask(w0)
	if a.owner != w0 {
		t.Fatalf("fresh record owner = %v, want worker 0", a.owner)
	}
	a.name, a.ctx.facade = "a", "facade"
	rt.freeTask(w1, a)
	if w1.free != nil {
		t.Fatal("foreign free kept the record on the finishing worker")
	}
	if w0.ret.empty() {
		t.Fatal("foreign free did not push the record onto the owner's return stack")
	}
	if got := rt.newTask(w0); got != a {
		t.Fatal("owner did not reuse its returned record")
	}
	if !w0.ret.empty() {
		t.Fatal("return stack not emptied by the owner's swap")
	}
	if a.name != "" || a.slot != -1 || a.idx != -1 || a.owner != w0 {
		t.Fatalf("recycled record not reset: name=%q slot=%d idx=%d", a.name, a.slot, a.idx)
	}
	if a.ctx.facade != "facade" {
		t.Fatalf("facade slot = %v after recycling, want it kept", a.ctx.facade)
	}

	rt.freeTask(w0, a)
	if w0.free != a || w0.freeN != 1 || !w0.ret.empty() {
		t.Fatal("owner's own free did not land on its freelist")
	}

	b := rt.newTask(w0)
	rt.dead.Store(1) // worker 0 retires while its record runs on worker 1
	rt.freeTask(w1, b)
	if !w0.ret.empty() {
		t.Fatal("record stranded on a retired owner's return stack")
	}
	if w1.free != b || b.owner != w1 {
		t.Fatal("record of a retired owner not adopted by the finishing worker")
	}

	// An unowned record (the root's) is adopted by whoever finishes it.
	root := rt.newTask(nil)
	rt.freeTask(w1, root)
	if w1.free != root || root.owner != w1 || w1.freeN != 2 {
		t.Fatal("unowned record not adopted by the finishing worker")
	}
}

// TestReturnStackFull: a foreign finisher pushes onto the owner's
// return stack only while it holds fewer than freeListCap records; the
// record that finds it full joins the finisher's own freelist, and the
// owner's swap releases the places its records held.
func TestReturnStackFull(t *testing.T) {
	rt, _ := testRuntime(t, 2, nil)
	w0, w1 := rt.workers[0], rt.workers[1]
	recs := make([]*task, freeListCap+1)
	for i := range recs {
		recs[i] = &task{slot: -1, idx: -1, owner: w0}
	}
	for _, r := range recs {
		rt.freeTask(w1, r)
	}
	if n := retained(w0.ret.head.Load()); n != freeListCap || w0.retN.Load() != freeListCap {
		t.Fatalf("return stack holds %d records (count %d), want %d", n, w0.retN.Load(), freeListCap)
	}
	last := recs[freeListCap]
	if w1.free != last || w1.freeN != 1 || last.owner != w1 {
		t.Fatal("record refused by a full return stack not adopted by the finishing worker")
	}
	if got := rt.newTask(w0); got.owner != w0 || w0.freeN != freeListCap-1 {
		t.Fatalf("owner refill took %d records, want %d", w0.freeN+1, freeListCap)
	}
	if !w0.ret.empty() || w0.retN.Load() != 0 {
		t.Fatalf("return stack count %d after the owner's swap, want 0", w0.retN.Load())
	}
}

// TestReturnStackBoundedAfterBurst has one worker spawn a 2000-wide
// burst pinned to the other and wait, without helping, until all of it
// has run, so every record finishes away from its owner. Afterwards the
// owner's return stack holds at most freeListCap records and every
// freelist at most freeListCap; the rest went to the garbage collector.
func TestReturnStackBoundedAfterBurst(t *testing.T) {
	rt, _ := testRuntime(t, 2, func(cfg *Config) {
		cfg.InvokeN = func(c *Ctx, payload any, i int) { payload.(func(*Ctx, int))(c, i) }
	})
	const width = 2000
	var ran atomic.Int64
	var owner, ranOnOther atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			c.Spawn("spawner", core.Affinity{}, nil, func(c *Ctx) {
				me := c.ProcID()
				owner.Store(int64(me))
				c.SpawnN("pinned", width, func(int) (core.Affinity, *Monitor, int8, int64) {
					return core.Affinity{Kind: core.AffProcessor, Processor: 1 - me}, nil, 0, 0
				}, func(c *Ctx, _ int) {
					if c.ProcID() != me {
						ranOnOther.Add(1)
					}
					ran.Add(1)
				})
				for ran.Load() < width {
					runtime.Gosched()
				}
			})
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := ranOnOther.Load(); n != width {
		t.Fatalf("%d of %d members ran away from the spawner, want all", n, width)
	}
	ow := rt.workers[owner.Load()]
	if n := retained(ow.ret.head.Load()); n > freeListCap || int32(n) != ow.retN.Load() {
		t.Fatalf("spawner's return stack holds %d records (count %d), want at most %d", n, ow.retN.Load(), freeListCap)
	}
	for _, w := range rt.workers {
		if n := retained(w.free); n > freeListCap || n != w.freeN {
			t.Fatalf("worker %d freelist holds %d records (count %d), want at most %d", w.id, n, w.freeN, freeListCap)
		}
	}
}

// retained counts the records on a chain linked through next.
func retained(chain *task) int {
	n := 0
	for t := chain; t != nil; t = t.next {
		n++
	}
	return n
}
