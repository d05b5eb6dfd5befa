package cool

import (
	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/native"
	"github.com/coolrts/cool/internal/sim"
)

// Ctx is the execution context of a running task. Every simulated action —
// computing, touching memory, spawning, synchronizing — goes through it
// and is charged simulated cycles on the current processor. On the
// native backend (nc non-nil) the same API drives the goroutine
// scheduler instead: spawning, affinity placement, and monitors behave
// identically, while the memory-system charges (Access, Prefetch) are
// no-ops because the real machine's caches do the work.
type Ctx struct {
	sc    *sim.Ctx    // sim backend only
	nc    *native.Ctx // native backend only
	rt    *Runtime
	scope *core.Scope // innermost active waitfor scope (sim backend)
}

// Runtime returns the runtime executing this task.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// ProcID returns the processor currently executing the task.
func (c *Ctx) ProcID() int {
	if c.nc != nil {
		return c.nc.ProcID()
	}
	return c.sc.Proc().ID
}

// Cluster returns the cluster of the current processor.
func (c *Ctx) Cluster() int { return c.rt.cfg.ClusterOf(c.ProcID()) }

// NumProcs returns the number of processors in the machine.
func (c *Ctx) NumProcs() int { return c.rt.cfg.Processors }

// Now returns the current time on this processor: simulated cycles on
// the simulator backend, wall-clock nanoseconds on the native backend.
func (c *Ctx) Now() int64 {
	if c.nc != nil {
		return c.nc.Now()
	}
	return c.sc.Now()
}

// Compute charges cycles of pure computation (no memory traffic). On the
// native backend the work-unit count still accumulates in the
// ComputeCycles counter (so utilization figures stay meaningful) but no
// time passes — the real computation is the time.
func (c *Ctx) Compute(cycles int64) {
	c.rt.mon.Per[c.ProcID()].ComputeCycles += cycles
	if c.nc != nil {
		return
	}
	c.sc.Charge(cycles)
}

// Access simulates a reference to [addr, addr+size) and charges the
// latency of whichever level of the memory hierarchy services it. On the
// native backend this is a no-op: the host memory system services the
// program's real loads and stores, and the simulated cache counters stay
// zero.
func (c *Ctx) Access(addr, size int64, write bool) {
	if c.nc != nil {
		return
	}
	p := c.ProcID()
	row := &c.rt.mon.Per[p]
	refs, miss := row.Refs, row.RemoteMisses+row.DirtyMisses
	cyc := c.rt.caches.Access(p, c.sc.Now(), addr, size, write)
	row.MemCycles += cyc
	if c.sc.Task().StolenRemote {
		// Attribute this access to stolen work: the adaptive
		// controller prices cross-cluster stealing by the marginal
		// non-local miss rate these references pay.
		row.StolenRefs += row.Refs - refs
		row.StolenMisses += row.RemoteMisses + row.DirtyMisses - miss
	}
	c.sc.Charge(cyc)
}

// inlineObjs is how many OBJECT operands a spawn stores without a heap
// allocation.
const inlineObjs = 4

// spawnOptions accumulates the affinity specification of one spawn.
// The first inlineObjs OBJECT operands are stored inline; a spawn naming
// more moves them all to the heap slice many. The value must never point
// into itself: a self-referencing slice would make the compiler move
// every spawn's options to the heap.
type spawnOptions struct {
	aff      core.Affinity
	mutex    *Monitor
	prio     int8  // priority class [0,7] (WithPriority)
	prioSet  bool  // an explicit WithPriority beats the job default
	deadline int64 // absolute deadline (WithDeadline), 0 = none
	objs     [inlineObjs]sizedObj
	nObjs    int
	many     []sizedObj // every OBJECT operand once there are more than inlineObjs
}

// objList returns every OBJECT operand in declaration order.
func (o *spawnOptions) objList() []sizedObj {
	if o.many != nil {
		return o.many
	}
	return o.objs[:o.nObjs]
}

// sizedObj is one OBJECT affinity operand with an optional size used to
// weigh placement when several objects are named.
type sizedObj struct {
	addr int64
	size int64
}

// SpawnOpt is an affinity hint or execution option for Spawn, mirroring
// the affinity declarations of Table 1 in the paper. It is a small value
// (not a closure), so building options at a spawn site costs no heap
// allocation — spawning is the native backend's hottest path.
type SpawnOpt struct {
	kind  optKind
	addr  int64
	size  int64
	proc  int
	mutex *Monitor
}

type optKind uint8

const (
	optOnObject optKind = iota + 1
	optTaskAffinity
	optObjectSized
	optOnProcessor
	optWithMutex
	optWithPriority
	optWithDeadline
)

// apply folds one option into the accumulated spawn specification.
func (op SpawnOpt) apply(o *spawnOptions) {
	switch op.kind {
	case optOnObject:
		o.aff.TaskObj = op.addr
		switch o.aff.Kind {
		case core.AffNone:
			o.aff.Kind = core.AffSimple
		case core.AffObject:
			o.aff.Kind = core.AffTaskObject
		}
	case optTaskAffinity:
		o.aff.TaskObj = op.addr
		switch o.aff.Kind {
		case core.AffNone, core.AffSimple:
			o.aff.Kind = core.AffTask
		case core.AffObject, core.AffTaskObject:
			o.aff.Kind = core.AffTaskObject
		}
	case optObjectSized:
		ob := sizedObj{addr: op.addr, size: op.size}
		switch {
		case o.many != nil:
			o.many = append(o.many, ob)
		case o.nObjs == inlineObjs:
			o.many = make([]sizedObj, inlineObjs, 2*inlineObjs)
			copy(o.many, o.objs[:])
			o.many = append(o.many, ob)
		default:
			o.objs[o.nObjs] = ob
			o.nObjs++
		}
		o.aff.ObjectObj = op.addr
		switch o.aff.Kind {
		case core.AffNone, core.AffSimple:
			o.aff.Kind = core.AffObject
		case core.AffTask:
			o.aff.Kind = core.AffTaskObject
		}
	case optOnProcessor:
		o.aff.Kind = core.AffProcessor
		o.aff.Processor = op.proc
	case optWithMutex:
		o.mutex = op.mutex
	case optWithPriority:
		p := op.proc
		if p < 0 {
			p = 0
		}
		if p > 7 {
			p = 7
		}
		o.prio = int8(p)
		o.prioSet = true
	case optWithDeadline:
		o.deadline = op.addr
	}
}

// OnObject declares simple affinity: the task wants cache and memory
// locality on the object at addr (also the "default affinity" a COOL
// parallel function has for its base object).
func OnObject(addr int64) SpawnOpt {
	return SpawnOpt{kind: optOnObject, addr: addr}
}

// TaskAffinity declares affinity(obj, TASK): tasks naming the same object
// form a task-affinity set executed back to back for cache reuse.
func TaskAffinity(addr int64) SpawnOpt {
	return SpawnOpt{kind: optTaskAffinity, addr: addr}
}

// ObjectAffinity declares affinity(obj, OBJECT): the task is collocated
// with the processor whose local memory homes the object.
func ObjectAffinity(addr int64) SpawnOpt {
	return ObjectAffinitySized(addr, 0)
}

// ObjectAffinitySized declares OBJECT affinity for an object of known
// size. When a spawn names several objects, the task is placed on the
// server homing the most bytes and the runtime prefetches the remaining
// objects as the task starts — the multiple-object heuristic the paper
// proposes in §4.1.
func ObjectAffinitySized(addr, size int64) SpawnOpt {
	return SpawnOpt{kind: optObjectSized, addr: addr, size: size}
}

// OnProcessor declares affinity(n, PROCESSOR): schedule the task directly
// on server n modulo the number of processors.
func OnProcessor(n int) SpawnOpt {
	return SpawnOpt{kind: optOnProcessor, proc: n}
}

// WithMutex makes the spawned task a COOL mutex function: it acquires the
// monitor before its body runs and releases it after, serializing with
// other mutex tasks on the same object.
func WithMutex(m *Monitor) SpawnOpt {
	return SpawnOpt{kind: optWithMutex, mutex: m}
}

// WithPriority assigns the task a priority class in [0,7] (clamped;
// 0 is the default and lowest, 7 is never shed on priority grounds).
// Under overload with shedding armed (Config.Shed on the native
// backend) lower classes are dropped first.
func WithPriority(p int) SpawnOpt {
	return SpawnOpt{kind: optWithPriority, proc: p}
}

// WithDeadline sets the task's absolute deadline in the runtime's own
// clock — simulated cycles on the simulator, wall-clock nanoseconds
// since Run on the native backend (both the scale Ctx.Now reads). A
// task dispatched after its deadline is shed instead of run when
// shedding is armed; the simulator enforces deadlines deterministically
// whenever one is set.
func WithDeadline(at int64) SpawnOpt {
	return SpawnOpt{kind: optWithDeadline, addr: at}
}

// Spawn creates a task executing fn. With no options the task has no
// locality preference; affinity options steer its placement exactly as
// the paper's affinity declarations do. The task is accounted to the
// innermost enclosing WaitFor scope (transitively inherited by its own
// spawns).
func (c *Ctx) Spawn(name string, fn func(*Ctx), opts ...SpawnOpt) {
	if c.nc != nil {
		c.spawnNative(name, fn, opts)
		return
	}
	c.sc.SyncPoint()
	var o spawnOptions
	for _, opt := range opts {
		opt.apply(&o)
	}
	p := c.ProcID()
	rt := c.rt
	rt.applyJobSLO(&o)
	rt.mon.Per[p].Spawns++
	c.sc.Charge(rt.cfg.Lat.Spawn)

	// Multiple OBJECT operands: place at the server homing the most
	// bytes; the rest are prefetched when the task starts (§4.1).
	var prefetch []sizedObj
	if objs := o.objList(); len(objs) > 1 {
		best := pickHome(rt, objs)
		o.aff.ObjectObj = objs[best].addr
		for i, ob := range objs {
			if i != best {
				prefetch = append(prefetch, ob)
			}
		}
	}

	class, server, slot, affObj := rt.sched.Place(o.aff, p)
	if server != p {
		c.sc.Charge(rt.cfg.Lat.EnqueueAway)
	}
	td := rt.newTaskDesc()
	td.Class = class
	td.Server = server
	td.Slot = slot
	td.AffObj = affObj
	td.Scope = c.scope
	td.Prio = o.prio
	td.DeadlineAt = o.deadline
	if td.Scope != nil {
		rt.sched.ScopeAdd(td.Scope)
	}
	mutex := o.mutex
	t := rt.eng.NewTask(name, c.sc.Now(), func(sc *sim.Ctx) {
		if td.DeadlineAt > 0 && sc.Now() > td.DeadlineAt {
			// Deterministic deadline shed: the task dispatched past its
			// deadline completes (scope and trace accounting) without
			// running its body — the simulated twin of the native SLO
			// layer's deadline rule.
			ctr := &rt.mon.Per[sc.Proc().ID]
			ctr.DeadlineMisses++
			ctr.TasksShed++
			if td.Scope != nil {
				rt.sched.ScopeDone(sc, td.Scope)
			}
			rt.sched.TraceDone(sc)
			rt.freeTaskDesc(td)
			return
		}
		cc := &Ctx{sc: sc, rt: rt, scope: td.Scope}
		for _, ob := range prefetch {
			size := ob.size
			if size <= 0 {
				size = 64
			}
			cc.Prefetch(ob.addr, size)
		}
		if mutex != nil {
			rt.sched.Lock(sc, &mutex.m)
		}
		fn(cc)
		if mutex != nil {
			rt.sched.Unlock(sc, &mutex.m)
		}
		if td.Scope != nil {
			rt.sched.ScopeDone(sc, td.Scope)
		}
		rt.sched.TraceDone(sc)
		rt.freeTaskDesc(td)
	})
	t.Data = td
	td.T = t
	rt.sched.Enqueue(td, c.sc.Now())
}

// SpawnN creates n sibling tasks running fn(c, i) for i in [0, n); opts,
// when non-nil, supplies member i's spawn options. Semantically it is
// exactly the loop `for i { Spawn(name, func(c){fn(c,i)}, opts(i)...) }`,
// and the simulator executes it as that literal loop, so converting a
// spawn loop leaves every simulated figure unchanged. The native backend
// instead publishes the burst as one batch — one queue publish and one
// wake decision instead of n (counted by SpawnBatches) — which is where
// spawn-heavy phases win.
//
// The slice opts returns is consumed before opts is called for the next
// member, so a caller may fill and return the same backing buffer every
// call rather than allocate one per member.
func (c *Ctx) SpawnN(name string, n int, fn func(*Ctx, int), opts func(i int) []SpawnOpt) {
	if c.nc != nil {
		c.spawnNNative(name, n, fn, opts)
		return
	}
	for i := 0; i < n; i++ {
		i := i
		var o []SpawnOpt
		if opts != nil {
			o = opts(i)
		}
		c.Spawn(name, func(cc *Ctx) { fn(cc, i) }, o...)
	}
}

// spawnNNative lowers a SpawnN burst onto the goroutine backend: each
// member's affinity resolution (including the multiple-object §4.1
// heuristic) matches spawnNative's, and fn rides the whole batch as one
// shared payload, run per member through native Config.InvokeN with the
// member index.
func (c *Ctx) spawnNNative(name string, n int, fn func(*Ctx, int), opts func(i int) []SpawnOpt) {
	rt := c.rt
	get := func(i int) (core.Affinity, *native.Monitor, int8, int64) {
		var o spawnOptions
		if opts != nil {
			for _, opt := range opts(i) {
				opt.apply(&o)
			}
		}
		if objs := o.objList(); len(objs) > 1 {
			o.aff.ObjectObj = objs[pickHome(rt, objs)].addr
		}
		rt.applyJobSLO(&o)
		var nm *native.Monitor
		if o.mutex != nil {
			nm = &o.mutex.nm
		}
		return o.aff, nm, o.prio, o.deadline
	}
	c.nc.SpawnN(name, n, get, fn)
}

// spawnNative places and enqueues one task on the goroutine backend.
// The affinity resolution (including the multiple-object §4.1 heuristic)
// matches the simulator's; prefetching is a no-op natively, so the
// non-chosen objects are simply dropped.
func (c *Ctx) spawnNative(name string, fn func(*Ctx), opts []SpawnOpt) {
	var o spawnOptions
	for _, opt := range opts {
		opt.apply(&o)
	}
	rt := c.rt
	if objs := o.objList(); len(objs) > 1 {
		o.aff.ObjectObj = objs[pickHome(rt, objs)].addr
	}
	rt.applyJobSLO(&o)
	var nm *native.Monitor
	if o.mutex != nil {
		nm = &o.mutex.nm
	}
	c.nc.SpawnPayload(name, o.aff, nm, fn, o.prio, o.deadline)
}

// homeServer returns the server treated as the home processor of the
// object at addr, on either backend.
func (rt *Runtime) homeServer(addr int64) int {
	if rt.homes != nil {
		return rt.homes.HomeProc(addr)
	}
	return rt.sched.HomeServer(addr)
}

// newTaskDesc takes a zeroed descriptor off the runtime's free list, or
// allocates one. Coroutines run one at a time under the engine loop, so
// the free list needs no locking.
func (rt *Runtime) newTaskDesc() *core.TaskDesc {
	if n := len(rt.tdFree); n > 0 {
		td := rt.tdFree[n-1]
		rt.tdFree[n-1] = nil
		rt.tdFree = rt.tdFree[:n-1]
		*td = core.TaskDesc{}
		return td
	}
	return &core.TaskDesc{}
}

// freeTaskDesc recycles a descriptor. Called only from the completion
// path of the spawn wrapper: a completed task is off every queue and is
// never dispatched again. Killed or panicked tasks skip this, so their
// descriptors stay valid for failure reporting.
func (rt *Runtime) freeTaskDesc(td *core.TaskDesc) {
	rt.tdFree = append(rt.tdFree, td)
}

// pickHome returns the index of the object whose home server holds the
// most affinity-weighted bytes.
// Each home is looked up once; the bytes per home are summed by a scan
// over the operands (a spawn names a handful), so nothing is allocated.
// Ties go to the earliest operand.
func pickHome(rt *Runtime, objs []sizedObj) int {
	var buf [inlineObjs]int
	homes := buf[:0]
	for _, ob := range objs {
		homes = append(homes, rt.homeServer(ob.addr))
	}
	best, bestBytes := 0, int64(-1)
	for i := range objs {
		var b int64
		for j, ob := range objs {
			if homes[j] == homes[i] {
				b += max(ob.size, 1)
			}
		}
		if b > bestBytes {
			best, bestBytes = i, b
		}
	}
	return best
}

// Prefetch issues a non-binding read prefetch of [addr, addr+size): the
// lines stream into this processor's caches while only a small issue
// cost is charged (the paper's §8 prefetching support).
func (c *Ctx) Prefetch(addr, size int64) {
	if c.nc != nil {
		return // the host hardware prefetches for itself
	}
	p := c.ProcID()
	cyc := c.rt.caches.Prefetch(p, c.sc.Now(), addr, size)
	c.rt.mon.Per[p].MemCycles += cyc
	c.sc.Charge(cyc)
}

// WaitFor runs body (in the current task) and then blocks until every
// task spawned within body's dynamic extent — including tasks spawned by
// descendant tasks outside any inner WaitFor — has completed. This is the
// paper's waitfor construct.
func (c *Ctx) WaitFor(body func()) {
	if c.nc != nil {
		c.nc.WaitFor(body)
		return
	}
	scope := &core.Scope{}
	old := c.scope
	c.scope = scope
	body()
	c.scope = old
	c.rt.sched.ScopeWait(c.sc, scope)
}

// SetClusterStealingOnly flips the cluster-stealing restriction while
// the program runs — the dynamic runtime flag of the paper's Panel
// Cholesky cluster-scheduling experiment (§6.3).
func (c *Ctx) SetClusterStealingOnly(on bool) {
	if c.nc != nil {
		c.rt.nat.SetClusterStealingOnly(on)
		return
	}
	c.rt.sched.SetClusterStealingOnly(on)
}

// Monitor serializes mutex functions on one object (COOL's monitor).
// Create with Runtime.NewMonitor or use the zero value for an object
// without a simulated address. On the native backend the monitor is a
// real mutex.
type Monitor struct {
	m  core.Monitor
	nm native.Monitor
}

// NewMonitor returns a monitor associated with the simulated object at
// addr (used for accounting; the zero Monitor works too).
func (rt *Runtime) NewMonitor(addr int64) *Monitor {
	return &Monitor{m: core.Monitor{Addr: addr}}
}

// Lock acquires the monitor, blocking while another task holds it.
func (c *Ctx) Lock(m *Monitor) {
	if c.nc != nil {
		c.nc.Lock(&m.nm)
		return
	}
	c.rt.sched.Lock(c.sc, &m.m)
}

// Unlock releases the monitor.
func (c *Ctx) Unlock(m *Monitor) {
	if c.nc != nil {
		c.nc.Unlock(&m.nm)
		return
	}
	c.rt.sched.Unlock(c.sc, &m.m)
}

// Cond is a condition variable with Mesa semantics, used with a Monitor.
// On the native backend a waiting task blocks its worker goroutine (the
// simulator parks only the task); see DESIGN.md §9.
type Cond struct {
	c   core.Cond
	ncv native.Cond
}

// Wait atomically releases m and blocks until signalled, reacquiring m
// before returning.
func (c *Ctx) Wait(cv *Cond, m *Monitor) {
	if c.nc != nil {
		c.nc.Wait(&cv.ncv, &m.nm)
		return
	}
	c.rt.sched.Wait(c.sc, &cv.c, &m.m)
}

// Signal wakes the oldest waiter on cv, if any.
func (c *Ctx) Signal(cv *Cond) {
	if c.nc != nil {
		c.nc.Signal(&cv.ncv)
		return
	}
	c.rt.sched.Signal(c.sc, &cv.c)
}

// Broadcast wakes every waiter on cv.
func (c *Ctx) Broadcast(cv *Cond) {
	if c.nc != nil {
		c.nc.Broadcast(&cv.ncv)
		return
	}
	c.rt.sched.Broadcast(c.sc, &cv.c)
}
