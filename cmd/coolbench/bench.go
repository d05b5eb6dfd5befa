// The -bench-* modes form the benchmark regression harness: they run the
// reference experiments (Gauss, Ocean, Panel Cholesky, LocusRoute at
// P=8/32) on the host, recording wall-clock, allocations, and the
// simulated MaxClock, and emit machine-readable JSON so every PR lands
// against a measured trajectory.
//
//	coolbench -bench-json out.json                  write measurements
//	coolbench -bench-json BENCH_SMOKE.json -bench-small
//	                                                small sizes: the
//	                                                baseline CI gates on
//	coolbench -bench-json out.json -bench-baseline old.json
//	                                                embed old.json and
//	                                                improvement ratios
//	coolbench -bench-check BENCH_SMOKE.json         rerun the baseline's
//	                                                config and fail on a
//	                                                >20% total wall-clock
//	                                                regression
//
// This file depends only on the apps registry and the standard library,
// so the identical file builds against older trees when measuring a
// baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/coolrts/cool/internal/apps"
)

// benchCase is one reference experiment: an app's full-affinity variant
// at a processor count.
type benchCase struct {
	app   string
	procs int
}

// benchCases returns the reference experiment list. small selects the
// reduced workload sizes used by the CI smoke job.
func benchCases() []benchCase {
	var out []benchCase
	for _, app := range []string{"gauss", "ocean", "pancho", "locusroute"} {
		for _, p := range []int{8, 32} {
			out = append(out, benchCase{app: app, procs: p})
		}
	}
	return out
}

// benchSmallSizes are the reduced workloads for -bench-small.
var benchSmallSizes = map[string]int{
	"gauss":      64,
	"ocean":      64,
	"pancho":     24,
	"locusroute": 8,
}

// benchDelta is the baseline comparison embedded per entry when
// -bench-baseline names an earlier measurement.
type benchDelta struct {
	WallNS      int64   `json:"wall_ns"`
	AllocsOp    uint64  `json:"allocs_op"`
	SimClock    int64   `json:"sim_max_clock"`
	WallRatio   float64 `json:"wall_ratio"`   // current/baseline
	AllocsRatio float64 `json:"allocs_ratio"` // current/baseline
}

// benchEntry is one experiment's measurement. The native_* fields
// measure the same workload on the goroutine execution backend (real
// parallel wall-clock, not simulation cost); they are absent from
// baselines recorded before the native backend existed and unmarshal
// as zero, which the comparison code treats as "not measured".
type benchEntry struct {
	Name           string      `json:"name"` // app/variant/P<procs>
	App            string      `json:"app"`
	Variant        string      `json:"variant"`
	Procs          int         `json:"procs"`
	Size           int         `json:"size"` // 0 = app default workload
	WallNS         int64       `json:"wall_ns"`
	AllocsOp       uint64      `json:"allocs_op"`
	BytesOp        uint64      `json:"bytes_op"`
	SimClock       int64       `json:"sim_max_clock"`
	NativeWallNS   int64       `json:"native_wall_ns,omitempty"`
	NativeAllocsOp uint64      `json:"native_allocs_op,omitempty"`
	Verify         string      `json:"verify"`
	Baseline       *benchDelta `json:"baseline,omitempty"`
}

// benchDoc is the JSON document written by -bench-json and read back by
// -bench-check / -bench-baseline.
type benchDoc struct {
	GoVersion string       `json:"go_version"`
	OSArch    string       `json:"os_arch"`
	Reps      int          `json:"reps"`
	Small     bool         `json:"small"`
	Results   []benchEntry `json:"results"`
}

// nativeBench, when installed (from bench_native.go), measures the same
// workload on the native goroutine backend. It is a hook variable so
// this file keeps its only-apps-and-stdlib dependency contract: copied
// alone into a tree predating the native backend, it still builds and
// simply skips the native columns.
var nativeBench func(app apps.App, variant string, procs, size int) (wallNS int64, allocs uint64, err error)

// benchMain is the entry point for the -bench-* modes (dispatched from
// main before the experiment flags are parsed). Returns the process exit
// code.
func benchMain(args []string) int {
	fs := flag.NewFlagSet("coolbench -bench", flag.ExitOnError)
	jsonOut := fs.String("bench-json", "", "write measurements to this JSON file")
	check := fs.String("bench-check", "", "baseline JSON to rerun and gate against (>20% wall regression fails)")
	small := fs.Bool("bench-small", false, "use reduced workload sizes (CI smoke)")
	reps := fs.Int("bench-reps", 3, "repetitions per experiment (best wall-clock wins)")
	baseline := fs.String("bench-baseline", "", "earlier -bench-json output to embed improvement ratios against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut == "" && *check == "" {
		fmt.Fprintln(os.Stderr, "coolbench: -bench-json or -bench-check required in bench mode")
		return 2
	}
	if *check != "" {
		return benchCheck(*check, *reps)
	}
	doc, err := benchRun(*small, *reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 1
	}
	if *baseline != "" {
		base, err := benchLoad(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
			return 1
		}
		benchEmbed(doc, base)
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
	fmt.Printf("wrote %s (%d experiments)\n", *jsonOut, len(doc.Results))
	return 0
}

// benchRun measures every reference experiment.
func benchRun(small bool, reps int) (*benchDoc, error) {
	if reps < 1 {
		reps = 1
	}
	doc := &benchDoc{
		GoVersion: runtime.Version(),
		OSArch:    runtime.GOOS + "/" + runtime.GOARCH,
		Reps:      reps,
		Small:     small,
	}
	for _, c := range benchCases() {
		app, ok := apps.Lookup(c.app)
		if !ok {
			return nil, fmt.Errorf("unknown app %q", c.app)
		}
		// The reference run is the app's most locality-optimised variant
		// (the registry lists Base first, refinements after).
		variant := app.Variants[len(app.Variants)-1]
		size := 0
		if small {
			size = benchSmallSizes[c.app]
		}
		e := benchEntry{
			Name:    fmt.Sprintf("%s/%s/P%d", c.app, variant, c.procs),
			App:     c.app,
			Variant: variant,
			Procs:   c.procs,
			Size:    size,
		}
		for rep := 0; rep < reps; rep++ {
			wall, allocs, bytes, res, err := benchOnce(app, variant, c.procs, size)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name, err)
			}
			if rep == 0 || wall < e.WallNS {
				e.WallNS = wall
				e.AllocsOp = allocs
				e.BytesOp = bytes
			}
			e.SimClock = res.Cycles
			e.Verify = res.Verify
		}
		if nativeBench != nil {
			for rep := 0; rep < reps; rep++ {
				wall, allocs, err := nativeBench(app, variant, c.procs, size)
				if err != nil {
					return nil, fmt.Errorf("%s (native): %w", e.Name, err)
				}
				if rep == 0 || wall < e.NativeWallNS {
					e.NativeWallNS = wall
					e.NativeAllocsOp = allocs
				}
			}
		}
		native := ""
		if e.NativeWallNS > 0 {
			native = fmt.Sprintf("  nativeWall=%s", time.Duration(e.NativeWallNS))
		}
		fmt.Printf("%-28s wall=%-12s allocs=%-10d simClock=%d%s\n",
			e.Name, time.Duration(e.WallNS), e.AllocsOp, e.SimClock, native)
		doc.Results = append(doc.Results, e)
	}
	return doc, nil
}

// benchOnce runs one experiment, measuring wall time and the allocation
// delta around the run.
func benchOnce(app apps.App, variant string, procs, size int) (wallNS int64, allocs, bytes uint64, res apps.Result, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err = app.Run(procs, variant, size)
	wallNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	allocs = after.Mallocs - before.Mallocs
	bytes = after.TotalAlloc - before.TotalAlloc
	return wallNS, allocs, bytes, res, err
}

// benchLoad reads a benchDoc from disk.
func benchLoad(path string) (*benchDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// benchEmbed attaches baseline figures and current/baseline ratios to
// matching entries.
func benchEmbed(doc, base *benchDoc) {
	byName := make(map[string]benchEntry, len(base.Results))
	for _, e := range base.Results {
		byName[e.Name] = e
	}
	for i := range doc.Results {
		e := &doc.Results[i]
		b, ok := byName[e.Name]
		if !ok {
			continue
		}
		d := &benchDelta{WallNS: b.WallNS, AllocsOp: b.AllocsOp, SimClock: b.SimClock}
		if b.WallNS > 0 {
			d.WallRatio = float64(e.WallNS) / float64(b.WallNS)
		}
		if b.AllocsOp > 0 {
			d.AllocsRatio = float64(e.AllocsOp) / float64(b.AllocsOp)
		}
		e.Baseline = d
	}
}

// benchCheck reruns the baseline's configuration and fails (exit 1) on a
// >20% regression of the summed wall-clock. The sum — rather than any
// single experiment — is gated because per-experiment wall times on
// shared CI machines are noisy; allocation counts are reported alongside
// for diagnosis.
func benchCheck(path string, reps int) int {
	base, err := benchLoad(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 1
	}
	doc, err := benchRun(base.Small, reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 1
	}
	benchEmbed(doc, base)
	var oldSum, newSum int64
	for _, e := range doc.Results {
		if e.Baseline == nil {
			fmt.Printf("%-28s NEW (no baseline entry)\n", e.Name)
			continue
		}
		oldSum += e.Baseline.WallNS
		newSum += e.WallNS
		fmt.Printf("%-28s wall %12s -> %-12s (x%.2f)  allocs %10d -> %-10d\n",
			e.Name, time.Duration(e.Baseline.WallNS), time.Duration(e.WallNS),
			e.Baseline.WallRatio, e.Baseline.AllocsOp, e.AllocsOp)
	}
	if oldSum == 0 {
		fmt.Fprintln(os.Stderr, "coolbench: baseline has no comparable entries")
		return 1
	}
	ratio := float64(newSum) / float64(oldSum)
	fmt.Printf("total wall %s -> %s (x%.3f, gate x1.20)\n",
		time.Duration(oldSum), time.Duration(newSum), ratio)
	if ratio > 1.20 {
		fmt.Fprintf(os.Stderr, "coolbench: wall-clock regression x%.3f exceeds the 20%% gate\n", ratio)
		return 1
	}
	return 0
}
