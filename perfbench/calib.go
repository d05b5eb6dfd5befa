package main

import (
	"fmt"
	"sort"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine,
// and its speed drifts by tens of percent from one minute to the next
// (other tenants take the cores' time, caches and memory bandwidth).
// A wall time measured in one run cannot be compared with one from
// another run without knowing how fast the host was meanwhile, so every
// workload also times a fixed calibration kernel at quiet points of the
// run — when no operation of the program is in flight — and reports its
// latency in units of that kernel: latency_cal is the workload's median
// operation time divided by the median kernel time of the same run.
//
// The kernel is plain Go owned by the benchmark, so no change to the
// repository moves it. It does the kinds of work the program does —
// map updates, chasing links through a working set larger than the L2
// cache, sorting — single-threaded, on pointer-free memory allocated
// once, so that neither a collection nor a write barrier lands inside a
// timing. It takes about 3 ms on a 2-core Xeon VM.

const (
	calNodes = 1 << 15 // linked nodes: 32 Ki x 32 B = 1 MiB
	calKeys  = 1 << 12 // distinct map keys
	calSorts = 1 << 13 // floats sorted
)

type calNode struct {
	next int32 // index of the next node; -1 ends the list
	_    int32
	val  uint64
	_    [2]uint64
}

// calState is the kernel's working set, built on first use.
var calState struct {
	nodes []calNode
	perm  []int32
	m     map[uint64]uint64
	fs    []float64
}

// calSink keeps the kernel's result live so the compiler cannot drop it.
var calSink uint64

// calKernel runs the calibration work once.
func calKernel() {
	st := &calState
	if st.nodes == nil {
		st.nodes = make([]calNode, calNodes)
		st.perm = make([]int32, calNodes)
		for i := range st.nodes {
			st.nodes[i].val = uint64(i) * 0x9e3779b97f4a7c15
			st.perm[i] = int32(i)
		}
		st.m = make(map[uint64]uint64, calKeys)
		st.fs = make([]float64, calSorts)
	}
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 { // xorshift64: fixed input, no dependence on the seed
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	perm, nodes := st.perm, st.nodes
	for i := len(perm) - 1; i > 0; i-- { // shuffle, then link in shuffled order
		j := int(rnd() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i+1 < len(perm); i++ {
		nodes[perm[i]].next = perm[i+1]
	}
	nodes[perm[len(perm)-1]].next = -1
	clear(st.m)
	var sum uint64
	for i := perm[0]; i >= 0; i = nodes[i].next {
		st.m[nodes[i].val%calKeys] += nodes[i].val
		sum += nodes[i].val
	}
	for i := range st.fs {
		st.fs[i] = float64(rnd()>>11) / (1 << 53)
	}
	sort.Float64s(st.fs)
	calSink = sum + uint64(len(st.m)) + uint64(st.fs[calSorts/2]*1e9)
}

// calibration collects kernel timings over a run.
type calibration struct{ ms []float64 }

// sample times n runs of the kernel after one untimed run, which brings
// its working set back into cache: a cold first run measured what the
// program had left in the caches, not how fast the host was. Call it
// only when none of the program's work is in flight.
func (c *calibration) sample(n int) {
	calKernel()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		calKernel()
		c.ms = append(c.ms, time.Since(t0).Seconds()*1e3)
	}
}

// unit is the median kernel time in ms.
func (c *calibration) unit() float64 { return median(c.ms) }

func (c calibration) String() string {
	q1, med, q3 := quartiles(c.ms)
	return fmt.Sprintf("calibration: %d kernels, cal_ms_p50=%.4f q1=%.4f q3=%.4f", len(c.ms), med, q1, q3)
}
