// Package memsim models the shared address space of the simulated
// machine. Memory is paged; every page has a home processor whose cluster
// memory services misses to it. Objects are allocated at simulated
// addresses while their contents live in ordinary Go slices, so
// applications compute real results while the simulator charges realistic
// memory latencies.
//
// Following the paper, placed allocation (new(proc)) and migrate(obj,
// proc) name a processor; the page records that processor as the object's
// home (the paper's footnote 3: the runtime keeps an object's location in
// a variable rather than asking the OS), and the page physically lives in
// that processor's cluster memory. Migration operates on whole pages
// (footnote 2).
package memsim

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/coolrts/cool/internal/machine"
)

// arenaShift positions each cluster's allocation arena in a disjoint
// region of the simulated address space.
const arenaShift = 36

// Space is the simulated shared address space.
type Space struct {
	pageSize    int64
	pageShift   uint
	clusters    int
	clusterSize int
	procs       int
	next        []int64 // per-cluster bump pointer
	// pageProc[c] maps a page offset within cluster c's arena to the
	// page's home processor (-1 = unrecorded). Arenas are bump-allocated,
	// so offsets are dense and a flat table beats a map on the home
	// lookup that placement performs per spawned task.
	pageProc [][]int32
	// pub mirrors pageProc for lock-free readers once Publish has been
	// called (the native backend); nil on the simulator.
	pub *Homes
}

// New creates an address space for the given machine.
func New(cfg machine.Config) *Space {
	s := &Space{
		pageSize:    int64(cfg.PageSize),
		pageShift:   uint(bits.TrailingZeros64(uint64(cfg.PageSize))),
		clusters:    cfg.Clusters(),
		clusterSize: cfg.ClusterSize,
		procs:       cfg.Processors,
	}
	s.pageProc = make([][]int32, cfg.Clusters())
	s.next = make([]int64, s.clusters)
	for c := range s.next {
		// Skip the first page of each arena so address 0 is never valid.
		s.next[c] = int64(c+1)<<arenaShift + s.pageSize
	}
	return s
}

// Reset rewinds the space to its post-New state: every arena's bump
// pointer returns to its first usable page and all recorded page homes
// are forgotten. Addresses handed out before the reset become invalid
// (they will be re-issued to later allocations), so a reset is only
// legal between program runs — the warm-runtime reuse path. The page
// tables keep their capacity so a reused space re-allocates without
// regrowing them.
func (s *Space) Reset() {
	for c := range s.next {
		s.next[c] = int64(c+1)<<arenaShift + s.pageSize
	}
	for c, t := range s.pageProc {
		for i := range t {
			t[i] = -1
		}
		s.pageProc[c] = t
	}
	if s.pub != nil {
		s.pub.clear()
	}
}

// Clusters returns the number of memory modules (clusters).
func (s *Space) Clusters() int { return s.clusters }

// PageSize returns the migration granularity in bytes.
func (s *Space) PageSize() int64 { return s.pageSize }

func (s *Space) checkProc(proc int) {
	if proc < 0 || proc >= s.procs {
		panic(fmt.Sprintf("memsim: processor %d out of range [0,%d)", proc, s.procs))
	}
}

// clusterOf maps a processor to its cluster.
func (s *Space) clusterOf(proc int) int { return proc / s.clusterSize }

// Alloc reserves size bytes homed at processor proc and returns the base
// address. Allocations are 64-byte aligned; small objects may share a
// page, as on a real machine (the page keeps the first allocator's home).
func (s *Space) Alloc(size int64, proc int) int64 {
	if size <= 0 {
		panic("memsim: allocation size must be positive")
	}
	s.checkProc(proc)
	cluster := s.clusterOf(proc)
	const align = 64
	base := (s.next[cluster] + align - 1) &^ (align - 1)
	s.next[cluster] = base + size
	s.recordPages(base, size, proc, false)
	return base
}

// AllocPages reserves size bytes rounded up to whole pages, so the object
// can later be migrated without dragging page-mates along.
func (s *Space) AllocPages(size int64, proc int) int64 {
	if size <= 0 {
		panic("memsim: allocation size must be positive")
	}
	s.checkProc(proc)
	cluster := s.clusterOf(proc)
	base := (s.next[cluster] + s.pageSize - 1) &^ (s.pageSize - 1)
	s.next[cluster] = base + (size+s.pageSize-1)&^(s.pageSize-1)
	s.recordPages(base, size, proc, false)
	return base
}

// pageOffset maps addr to (arena cluster, page offset within that
// arena). Every allocation lives inside a single arena, so a span's
// pages share one table.
func (s *Space) pageOffset(addr int64) (int, int64) {
	c := s.arenaCluster(addr)
	return c, (addr >> s.pageShift) - int64(c+1)<<(arenaShift-s.pageShift)
}

// growTable extends cluster c's page table to cover offset off,
// filling new entries with -1 (unrecorded).
func (s *Space) growTable(c int, off int64) {
	t := s.pageProc[c]
	for int64(len(t)) <= off {
		t = append(t, -1)
	}
	s.pageProc[c] = t
}

// recordPages stores the home processor of every page spanned by
// [addr, addr+size). When overwrite is false, pages that already have a
// home (shared with an earlier small allocation) keep it.
func (s *Space) recordPages(addr, size int64, proc int, overwrite bool) {
	c, first := s.pageOffset(addr)
	last := first + ((addr+size-1)>>s.pageShift - addr>>s.pageShift)
	s.growTable(c, last)
	t := s.pageProc[c]
	for pg := first; pg <= last; pg++ {
		if !overwrite && t[pg] >= 0 {
			continue
		}
		t[pg] = int32(proc)
	}
	if s.pub != nil {
		s.pub.store(c, t, first, last)
	}
}

// Migrate re-homes every page spanned by [addr, addr+size) to processor
// proc's memory. It returns the number of pages moved.
func (s *Space) Migrate(addr, size int64, proc int) int {
	s.checkProc(proc)
	if size <= 0 {
		panic("memsim: migrate size must be positive")
	}
	s.recordPages(addr, size, proc, true)
	first := addr >> s.pageShift
	last := (addr + size - 1) >> s.pageShift
	return int(last - first + 1)
}

// HomeProc returns the processor that homes the page containing addr.
func (s *Space) HomeProc(addr int64) int {
	c, off := s.pageOffset(addr)
	if t := s.pageProc[c]; off < int64(len(t)) && t[off] >= 0 {
		return int(t[off])
	}
	// Unrecorded page: attribute it to the first processor of the
	// arena's cluster.
	return c * s.clusterSize
}

// HomeCluster returns the cluster whose local memory holds the page
// containing addr (the unit the cache model charges against).
func (s *Space) HomeCluster(addr int64) int {
	c, off := s.pageOffset(addr)
	if t := s.pageProc[c]; off < int64(len(t)) && t[off] >= 0 {
		return s.clusterOf(int(t[off]))
	}
	return c
}

func (s *Space) arenaCluster(addr int64) int {
	c := int(addr>>arenaShift) - 1
	if c < 0 || c >= s.clusters {
		panic(fmt.Sprintf("memsim: address %#x outside any arena", addr))
	}
	return c
}

// Homes is a read view of a Space's page homes that concurrent readers
// consult without a lock (the native backend's placement path). Each
// cluster's table sits behind an atomic pointer that is replaced only
// when the table grows; its entries are atomics updated in place. The
// Space writes through it inside every Alloc, AllocPages, Migrate and
// Reset — all made under the caller's writer lock — before returning,
// so a lookup that starts after a write returned sees that write. A
// lookup racing a write reads the page's old home or its new one;
// either is a valid placement hint.
type Homes struct {
	s    *Space // read only for its immutable geometry fields
	tabs []atomic.Pointer[[]atomic.Int32]
}

// Publish returns the space's lock-free home view, creating it on the
// first call with the homes recorded so far. The caller must hold the
// space's writer lock (or own the space exclusively).
func (s *Space) Publish() *Homes {
	if s.pub == nil {
		h := &Homes{s: s, tabs: make([]atomic.Pointer[[]atomic.Int32], s.clusters)}
		for c, t := range s.pageProc {
			if len(t) > 0 {
				h.store(c, t, 0, int64(len(t)-1))
			}
		}
		s.pub = h
	}
	return s.pub
}

// store publishes entries [first, last] of cluster c's page table t.
// A table too short for last is replaced by a copy of t sized to its
// capacity, so growth is amortised like t's own.
func (h *Homes) store(c int, t []int32, first, last int64) {
	p := h.tabs[c].Load()
	if p == nil || int64(len(*p)) <= last {
		n := make([]atomic.Int32, cap(t))
		for i := range n {
			v := int32(-1)
			if i < len(t) {
				v = t[i]
			}
			n[i].Store(v)
		}
		h.tabs[c].Store(&n)
		return
	}
	for pg := first; pg <= last; pg++ {
		(*p)[pg].Store(t[pg])
	}
}

// clear forgets every published home (Space.Reset).
func (h *Homes) clear() {
	for c := range h.tabs {
		if p := h.tabs[c].Load(); p != nil {
			for i := range *p {
				(*p)[i].Store(-1)
			}
		}
	}
}

// HomeProc is Space.HomeProc without a lock: it returns the processor
// that homes the page containing addr, and panics on an address outside
// every arena. It inlines pageOffset's arithmetic (an arena starts on a
// multiple of 1<<arenaShift, so the page offset within it is a mask and
// a shift) because every native object-affinity spawn calls it.
func (h *Homes) HomeProc(addr int64) int {
	c := int(addr>>arenaShift) - 1
	if uint(c) >= uint(len(h.tabs)) {
		h.s.arenaCluster(addr) // panics: outside every arena
	}
	off := (addr & (1<<arenaShift - 1)) >> (h.s.pageShift & 63)
	if p := h.tabs[c].Load(); p != nil && off < int64(len(*p)) {
		if v := (*p)[off].Load(); v >= 0 {
			return int(v)
		}
	}
	return c * h.s.clusterSize
}
