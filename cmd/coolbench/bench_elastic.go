// The -bench-elastic mode benchmarks the elastic worker pool on the
// native backend: each repetition runs a three-phase spawn-heavy
// workload that scales the pool 4 -> 16 -> 4 mid-run (AddWorkers, then
// planned Retire drains), recording the drain request-to-completion
// latency distribution and the tasks re-homed off retiring workers.
// Every repetition is also a correctness check: exactly-once execution,
// zero SetSplits, and a complete add/drain timeline are asserted before
// a measurement is accepted.
//
//	coolbench -bench-elastic -bench-elastic-json BENCH_ELASTIC.json
//	                                              write measurements
//	coolbench -bench-elastic -bench-elastic-check BENCH_ELASTIC.json
//	                                              rerun the baseline's
//	                                              config; fail on a lost
//	                                              task, a set split, a
//	                                              missing pool event, or
//	                                              a >10x drain-latency
//	                                              p99 regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	cool "github.com/coolrts/cool"
)

// elasticRep is one measured repetition of the 4 -> 16 -> 4 scale
// cycle.
type elasticRep struct {
	WallNS      int64   `json:"wall_ns"`
	TasksRun    int64   `json:"tasks_run"`
	Adds        int     `json:"adds"`
	Drains      int     `json:"drains"`
	Rehomed     int     `json:"rehomed"`         // tasks moved off retiring workers
	DrainLatNS  []int64 `json:"drain_lat_ns"`    // per-drain request-to-completion latency
	GrowToFulNS int64   `json:"grow_to_full_ns"` // AddWorkers call to full pool size
}

// elasticDoc is the JSON document written by -bench-elastic-json and
// read back by -bench-elastic-check.
type elasticDoc struct {
	GoVersion  string       `json:"go_version"`
	OSArch     string       `json:"os_arch"`
	NumCPU     int          `json:"num_cpu"`
	Reps       int          `json:"reps"`
	StartProcs int          `json:"start_procs"`
	PeakProcs  int          `json:"peak_procs"`
	TasksPhase int          `json:"tasks_per_phase"`
	DrainP50NS int64        `json:"drain_p50_ns"`
	DrainP99NS int64        `json:"drain_p99_ns"`
	DrainMaxNS int64        `json:"drain_max_ns"`
	Rehomed    int          `json:"rehomed_total"`
	Results    []elasticRep `json:"results"`
}

const (
	elasticStart = 4
	elasticPeak  = 16
	elasticTasks = 4000 // per phase; three phases per rep
)

// benchElasticMain is the entry point for -bench-elastic (dispatched
// from main ahead of the -bench prefix). Returns the process exit code.
func benchElasticMain(args []string) int {
	fs := flag.NewFlagSet("coolbench -bench-elastic", flag.ExitOnError)
	_ = fs.Bool("bench-elastic", true, "elastic pool benchmark mode (this flag)")
	jsonOut := fs.String("bench-elastic-json", "", "write measurements to this JSON file")
	check := fs.String("bench-elastic-check", "", "baseline JSON to rerun and gate against")
	reps := fs.Int("bench-elastic-reps", 5, "repetitions of the scale cycle")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check != "" {
		return benchElasticCheck(*check)
	}
	if *jsonOut == "" {
		fmt.Fprintln(os.Stderr, "coolbench: -bench-elastic-json or -bench-elastic-check required in elastic bench mode")
		return 2
	}
	doc, err := benchElasticRun(*reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 1
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 1
	}
	out = append(out, '\n')
	if err := os.WriteFile(*jsonOut, out, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s (%d reps)\n", *jsonOut, len(doc.Results))
	return 0
}

// benchElasticRep runs one 4 -> 16 -> 4 scale cycle and extracts its
// measurements from the run report, failing on any correctness
// violation.
func benchElasticRep() (elasticRep, error) {
	var rep elasticRep
	rt, err := cool.NewRuntime(cool.Config{
		Processors:    elasticStart,
		MaxProcessors: elasticPeak,
		Backend:       cool.BackendNative,
	})
	if err != nil {
		return rep, err
	}
	var ran atomic.Int64
	burst := func(ctx *cool.Ctx, procs int) {
		ctx.WaitFor(func() {
			for i := 0; i < elasticTasks; i++ {
				i := i
				ctx.Spawn("work", func(*cool.Ctx) {
					ran.Add(1)
					time.Sleep(time.Microsecond)
				}, cool.OnProcessor(i%procs))
			}
		})
	}
	start := time.Now()
	err = rt.Run(func(ctx *cool.Ctx) {
		burst(ctx, elasticStart)
		growStart := time.Now()
		if _, err := rt.AddWorkers(elasticPeak - elasticStart); err != nil {
			panic(fmt.Sprintf("bench-elastic: AddWorkers: %v", err))
		}
		rep.GrowToFulNS = time.Since(growStart).Nanoseconds()
		// The retire is requested inside the burst, while the spawned
		// backlog is still queued across all 16 workers, so the planned
		// drains measure re-homing real work — not empty-queue exits.
		ctx.WaitFor(func() {
			for i := 0; i < elasticTasks; i++ {
				i := i
				ctx.Spawn("work", func(*cool.Ctx) {
					ran.Add(1)
					time.Sleep(time.Microsecond)
				}, cool.OnProcessor(i%elasticPeak))
			}
			if _, err := rt.Retire(elasticPeak - elasticStart); err != nil {
				panic(fmt.Sprintf("bench-elastic: Retire: %v", err))
			}
		})
		for rt.PoolSize() > elasticStart {
			time.Sleep(10 * time.Microsecond)
		}
		burst(ctx, elasticStart)
	})
	rep.WallNS = time.Since(start).Nanoseconds()
	if err != nil {
		return rep, err
	}
	if got, want := ran.Load(), int64(3*elasticTasks); got != want {
		return rep, fmt.Errorf("task loss: ran %d of %d tasks", got, want)
	}
	r := rt.Report()
	rep.TasksRun = r.Total.TasksRun
	if r.SetSplits != 0 {
		return rep, fmt.Errorf("SetSplits=%d on an elastic cycle, want 0", r.SetSplits)
	}
	for _, ev := range r.PoolEvents {
		switch ev.Kind {
		case "add":
			rep.Adds++
		case "drain":
			rep.Drains++
			rep.Rehomed += ev.Moved
			rep.DrainLatNS = append(rep.DrainLatNS, ev.DurationNS)
		default:
			return rep, fmt.Errorf("unexpected pool event kind %q", ev.Kind)
		}
	}
	if want := elasticPeak - elasticStart; rep.Adds != want || rep.Drains != want {
		return rep, fmt.Errorf("pool events: %d adds, %d drains, want %d each", rep.Adds, rep.Drains, want)
	}
	return rep, nil
}

// benchElasticRun measures reps scale cycles and aggregates the drain
// latency distribution.
func benchElasticRun(reps int) (*elasticDoc, error) {
	if reps < 1 {
		reps = 1
	}
	doc := &elasticDoc{
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Reps:       reps,
		StartProcs: elasticStart,
		PeakProcs:  elasticPeak,
		TasksPhase: elasticTasks,
	}
	var lats []int64
	for i := 0; i < reps; i++ {
		rep, err := benchElasticRep()
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", i, err)
		}
		doc.Results = append(doc.Results, rep)
		doc.Rehomed += rep.Rehomed
		lats = append(lats, rep.DrainLatNS...)
		fmt.Printf("rep %d: wall=%-12s tasks=%-6d adds=%d drains=%d rehomed=%d\n",
			i, time.Duration(rep.WallNS), rep.TasksRun, rep.Adds, rep.Drains, rep.Rehomed)
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	doc.DrainP50NS = percentileNS(lats, 50)
	doc.DrainP99NS = percentileNS(lats, 99)
	doc.DrainMaxNS = lats[len(lats)-1]
	fmt.Printf("drain latency over %d drains: p50=%s p99=%s max=%s  rehomed=%d\n",
		len(lats), time.Duration(doc.DrainP50NS), time.Duration(doc.DrainP99NS),
		time.Duration(doc.DrainMaxNS), doc.Rehomed)
	return doc, nil
}

// percentileNS returns the pth percentile of a sorted latency slice
// (nearest-rank).
func percentileNS(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// benchElasticCheck reruns the baseline's configuration. Correctness
// (exactly-once, zero splits, complete timeline) is asserted per rep by
// benchElasticRun; the latency gate allows a 10x p99 drift because
// drain latency on a shared CI machine is dominated by scheduling
// noise — the gate exists to catch order-of-magnitude protocol
// regressions (a drain that waits on the whole backlog, say), not
// microsecond jitter.
func benchElasticCheck(path string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 1
	}
	var base elasticDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %s: %v\n", path, err)
		return 1
	}
	doc, err := benchElasticRun(base.Reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 1
	}
	fmt.Printf("drain p99 %s -> %s (gate x10)\n",
		time.Duration(base.DrainP99NS), time.Duration(doc.DrainP99NS))
	if base.DrainP99NS > 0 && doc.DrainP99NS > 10*base.DrainP99NS {
		fmt.Fprintf(os.Stderr, "coolbench: drain-latency p99 regressed %s -> %s (>10x)\n",
			time.Duration(base.DrainP99NS), time.Duration(doc.DrainP99NS))
		return 1
	}
	return 0
}
