package cool_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	cool "github.com/coolrts/cool"
)

// Layer benchmarks: one native-backend operation each, in wall-clock
// ns/op with allocations per op. The figure benchmarks in bench_test.go
// run whole simulated apps instead.

// BenchmarkHomeLookup times Ctx.Home called from a task on every worker
// at once (P = the host's CPU count, clamped to [2, 64], the native
// worker limit) over 64 pages homed round robin. ns/op is wall time per
// lookup across all workers.
func BenchmarkHomeLookup(b *testing.B) {
	procs := min(max(runtime.NumCPU(), 2), 64)
	rt, err := cool.NewRuntime(cool.Config{Processors: procs, Backend: cool.BackendNative})
	if err != nil {
		b.Fatal(err)
	}
	const pages = 64
	addrs := make([]int64, pages)
	for i := range addrs {
		addrs[i] = rt.NewObjPages(64, i%procs).Base
	}
	per := b.N/procs + 1
	var sink atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for p := 0; p < procs; p++ {
				ctx.Spawn("lookup", func(c *cool.Ctx) {
					s := 0
					for i := 0; i < per; i++ {
						s += c.Home(addrs[i%pages])
					}
					sink.Add(int64(s))
				}, cool.OnProcessor(p))
			}
		})
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkObjectBoundSteal holds worker 1 busy while worker 0 drains a
// backlog of object-bound tasks homed on worker 1: every task worker 0
// runs, it had to steal. The b.N tasks are queued as backlogs of up to
// 256, one after another — no more than a worker's task-record
// freelist holds, so the figure is stealing, not allocation. ns/op is
// wall time per task.
func BenchmarkObjectBoundSteal(b *testing.B) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: cool.BackendNative})
	if err != nil {
		b.Fatal(err)
	}
	obj := rt.NewObjPages(64, 1)
	var done atomic.Int64
	task := func(*cool.Ctx) { done.Add(1) }
	b.ReportAllocs()
	b.ResetTimer()
	err = rt.Run(func(ctx *cool.Ctx) {
		for queued := 0; queued < b.N; {
			n := min(256, b.N-queued)
			queued += n
			// A victim with one queued task keeps it, so worker 0 can
			// drain all but the last; then worker 1 is let go.
			want := int64(queued - 1)
			started := make(chan struct{})
			ctx.WaitFor(func() {
				ctx.Spawn("hold", func(*cool.Ctx) {
					close(started)
					for done.Load() < want {
						time.Sleep(time.Microsecond)
					}
				}, cool.OnProcessor(1))
				<-started
				for i := 0; i < n; i++ {
					ctx.Spawn("ob", task, cool.ObjectAffinity(obj.Base))
				}
			})
		}
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}
