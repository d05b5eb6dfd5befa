package native

import "sync/atomic"

// This file holds the two lock-free structures the native hot path runs
// on since the Chase-Lev rewrite:
//
//   - chaseLev, a work-stealing deque in the style of Chase & Lev
//     ("Dynamic Circular Work-Stealing Deque", SPAA 2005). Each worker
//     owns one and keeps its plain (unpinned, unbound) tasks there: the
//     owner pushes and pops without taking any lock, and a thief removes
//     a single task with one CAS on the top index.
//
//   - inbox, a Treiber stack of task records. Everything another worker
//     inserts into this worker's queues (cross-worker plain placements,
//     pinned and object-bound tasks, retried launches) lands here with
//     one CAS; the owner drains it at its next dispatch point and routes
//     each record into the right structure. The single-producer rule of
//     the deque's bottom end is never violated because only the owner
//     ever touches it.
//
// Memory-ordering argument (DESIGN.md §12 spells it out in full): Go's
// sync/atomic operations are sequentially consistent, which is strictly
// stronger than the acquire/release points the original algorithm needs.
// The specific properties relied on:
//
//   - pushBottom writes the slot before publishing it with the bottom
//     store, so a thief whose takeTop CAS succeeds observed a fully
//     written record.
//   - popBottom stores the decremented bottom before loading top; the
//     seq-cst store/load pair is the StoreLoad fence that makes the
//     owner and a racing thief agree on who took the last element (at
//     most one of the bottom decrement and the top CAS wins).
//   - The buffer only grows, and grow copies the live window into the
//     fresh buffer without mutating the old one, so a thief still
//     holding the stale buffer pointer reads a value that is correct
//     for any index its subsequent top CAS can win: index t is reused
//     by the owner only once top has advanced past t, and then the CAS
//     at t fails and the stale read is discarded.

// dequeBuf is one immutable-capacity ring of task slots. Old buffers are
// kept alive by racing thieves' loads; they are never written again
// after grow copies them.
type dequeBuf struct {
	mask int64
	s    []atomic.Pointer[task]
}

func newDequeBuf(capacity int64) *dequeBuf {
	return &dequeBuf{mask: capacity - 1, s: make([]atomic.Pointer[task], capacity)}
}

func (b *dequeBuf) get(i int64) *task    { return b.s[i&b.mask].Load() }
func (b *dequeBuf) put(i int64, t *task) { b.s[i&b.mask].Store(t) }

// chaseLev is the per-worker work-stealing deque. The live window is
// [top, bottom); top only grows (steals and FIFO owner takes), bottom is
// owned exclusively by the worker (pushes grow it, popBottom shrinks it).
type chaseLev struct {
	top    atomic.Int64
	bottom atomic.Int64
	buf    atomic.Pointer[dequeBuf]
}

const dequeInitialCap = 64

func (d *chaseLev) init() {
	d.buf.Store(newDequeBuf(dequeInitialCap))
}

// size returns a racy snapshot of the element count (never negative).
func (d *chaseLev) size() int64 {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return n
}

// grow doubles the buffer, copying the live window [tp, b). Owner only.
func (d *chaseLev) grow(old *dequeBuf, tp, b int64) *dequeBuf {
	nb := newDequeBuf(2 * int64(len(old.s)))
	for i := tp; i < b; i++ {
		nb.put(i, old.get(i))
	}
	d.buf.Store(nb)
	return nb
}

// pushBottom appends t at the bottom end. Owner only.
func (d *chaseLev) pushBottom(t *task) {
	b := d.bottom.Load()
	tp := d.top.Load()
	buf := d.buf.Load()
	if b-tp >= int64(len(buf.s)) {
		buf = d.grow(buf, tp, b)
	}
	buf.put(b, t)
	d.bottom.Store(b + 1)
}

// pushBottomN appends a batch with a single publishing bottom store: the
// slots are written first, then one store makes them all visible to
// thieves — a spawn burst is one deque publish. Owner only.
func (d *chaseLev) pushBottomN(ts []*task) {
	if len(ts) == 0 {
		return
	}
	b := d.bottom.Load()
	tp := d.top.Load()
	buf := d.buf.Load()
	for b+int64(len(ts))-tp > int64(len(buf.s)) {
		buf = d.grow(buf, tp, b)
	}
	for i, t := range ts {
		buf.put(b+int64(i), t)
	}
	d.bottom.Store(b + int64(len(ts)))
}

// takeTop removes the oldest element with one CAS, or returns nil when
// the deque is (momentarily) empty. Safe for any goroutine; the owner
// uses it too, so its local dispatch stays FIFO like the simulator's
// plain queue — which is what keeps P=1 native schedules token-identical
// to the simulated ones (popBottom's LIFO would reorder them).
func (d *chaseLev) takeTop() *task {
	for {
		tp := d.top.Load()
		b := d.bottom.Load()
		if tp >= b {
			return nil
		}
		buf := d.buf.Load()
		t := buf.get(tp)
		if d.top.CompareAndSwap(tp, tp+1) {
			return t
		}
		// Lost the race for index tp (another thief, or the owner's
		// popBottom taking the last element); re-read and retry.
	}
}

// popBottom removes the newest element, racing thieves for the last one.
// Owner only. Used by the deque unit tests (LIFO end) and the retirement
// drain, where popBottom-until-nil empties the deque without violating
// the single-owner rule even while thieves keep CASing top.
func (d *chaseLev) popBottom() *task {
	b := d.bottom.Load() - 1
	buf := d.buf.Load()
	d.bottom.Store(b)
	tp := d.top.Load()
	if tp > b {
		// Empty: restore bottom.
		d.bottom.Store(b + 1)
		return nil
	}
	t := buf.get(b)
	if tp == b {
		// Last element: the top CAS decides against a racing thief.
		if !d.top.CompareAndSwap(tp, tp+1) {
			t = nil
		}
		d.bottom.Store(b + 1)
		return t
	}
	return t
}

// inbox is the per-worker Treiber stack of cross-inserted task records,
// linked through the task's intrusive next pointer (a record is never in
// an inbox and a queue or freelist at once). push is one CAS; the
// consumers take the whole chain with one atomic swap.
//
// Consumption is swapAll-only, never pop-one: popping a single node
// would have to read head.next on a record a concurrent swapAll may
// already have drained, executed, and recycled. Swapping the entire
// chain hands each record to exactly one consumer, which then owns every
// link in it.
type inbox struct {
	head atomic.Pointer[task]
}

func (in *inbox) empty() bool { return in.head.Load() == nil }

// push adds t on top of the stack (newest first).
func (in *inbox) push(t *task) {
	for {
		h := in.head.Load()
		t.next = h
		if in.head.CompareAndSwap(h, t) {
			return
		}
	}
}

// pushChain pushes an already linked chain (first is the newest end,
// last the oldest; last's next is overwritten) with one CAS — used by a
// thief returning the records a steal probe refused, preserving their
// relative order for the owner's eventual drain.
func (in *inbox) pushChain(first, last *task) {
	for {
		h := in.head.Load()
		last.next = h
		if in.head.CompareAndSwap(h, first) {
			return
		}
	}
}

// swapAll detaches and returns the whole chain (newest first), or nil.
func (in *inbox) swapAll() *task {
	return in.head.Swap(nil)
}
