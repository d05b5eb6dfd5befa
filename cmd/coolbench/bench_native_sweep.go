// The -bench-native mode is the native scalability benchmark suite: it
// sweeps the worker count P across every registered application on the
// goroutine execution backend, recording wall time, tasks run, and
// throughput (tasks per second) so the decentralized scheduler's scaling
// is measured on real hardware rather than inferred from the simulator.
//
//	coolbench -bench-native -bench-native-json BENCH_NATIVE.json
//	                                              write measurements
//	coolbench -bench-native -bench-native-json out.json -bench-native-small
//	                                              small sizes (CI smoke)
//	coolbench -bench-native -bench-native-procs 4,8,16
//	                                              subset of worker counts
//	coolbench -bench-native-check BENCH_NATIVE.json
//	                                              rerun the baseline's
//	                                              config and fail on a
//	                                              >20% total wall-clock
//	                                              regression
//
// The steal/contention counters are recorded per entry so a regression
// can be attributed (did steals fail more? did the shard locks become
// contended?) without rerunning under a profiler — though -cpuprofile
// and -mutexprofile are accepted in this mode for exactly that rerun.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// nativeEntry is one (app, variant, P) measurement on the native
// backend. Throughput is tasks per second of wall time — the figure the
// paper's central claim is about: locality plus load balancing should
// make it grow with P.
type nativeEntry struct {
	Name           string  `json:"name"` // app/variant/P<procs>
	App            string  `json:"app"`
	Variant        string  `json:"variant"`
	Procs          int     `json:"procs"`
	Size           int     `json:"size"` // 0 = app default workload
	WallNS         int64   `json:"wall_ns"`
	TasksRun       int64   `json:"tasks_run"`
	Throughput     float64 `json:"tasks_per_sec"`
	Steals         int64   `json:"steals"`
	SetSteals      int64   `json:"set_steals"`
	FailedSteals   int64   `json:"failed_steals"`
	LockContention int64   `json:"lock_contention"`
	Verify         string  `json:"verify"`
}

// nativeDoc is the JSON document written by -bench-native-json and read
// back by -bench-native-check.
type nativeDoc struct {
	GoVersion string        `json:"go_version"`
	OSArch    string        `json:"os_arch"`
	NumCPU    int           `json:"num_cpu"`
	Reps      int           `json:"reps"`
	Small     bool          `json:"small"`
	Procs     []int         `json:"procs"`
	Results   []nativeEntry `json:"results"`
}

// nativeSmallSizes are the reduced workloads for -bench-native-small,
// matching the xcheck smoke sizes so CI cost stays bounded.
var nativeSmallSizes = map[string]int{
	"pancho":     24,
	"ocean":      64,
	"locusroute": 8,
	"blockcho":   128,
	"barneshut":  256,
	"gauss":      64,
	"phaseflip":  80,
}

// nativeFullSizes override the app-default workloads in the full sweep.
// The defaults for ocean, locusroute, and blockcho finish in single-digit
// milliseconds, where process startup dominates the wall clock and
// run-to-run noise swamps any scheduler effect; these sizes keep every
// cell in the tens of milliseconds. Apps not listed use their defaults.
var nativeFullSizes = map[string]int{
	"ocean":      384,
	"locusroute": 96,
	"blockcho":   640,
}

// benchNativeMain is the entry point for the -bench-native modes
// (dispatched from main ahead of the -bench prefix). Returns the
// process exit code.
func benchNativeMain(args []string) int {
	fs := flag.NewFlagSet("coolbench -bench-native", flag.ExitOnError)
	_ = fs.Bool("bench-native", true, "native scalability benchmark mode (this flag)")
	jsonOut := fs.String("bench-native-json", "", "write measurements to this JSON file")
	check := fs.String("bench-native-check", "", "baseline JSON to rerun and gate against (>20% wall regression fails)")
	procsFlag := fs.String("bench-native-procs", "1,2,4,8,16,32,64", "comma-separated worker counts to sweep")
	small := fs.Bool("bench-native-small", false, "use reduced workload sizes (CI smoke)")
	reps := fs.Int("bench-native-reps", 3, "repetitions per cell (best wall-clock wins)")
	appsFlag := fs.String("bench-native-apps", "", "comma-separated app subset (default: all registered)")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	mutexProf := fs.String("mutexprofile", "", "write a mutex-contention profile of the sweep to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stop, err := startProfiles(*cpuProf, *mutexProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		}
	}()
	if *check != "" {
		return benchNativeCheck(*check)
	}
	var procs []int
	for _, f := range strings.Split(*procsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "coolbench: bad -bench-native-procs entry %q\n", f)
			return 2
		}
		procs = append(procs, n)
	}
	var names []string
	if *appsFlag != "" {
		for _, n := range strings.Split(*appsFlag, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	if *jsonOut == "" {
		fmt.Fprintln(os.Stderr, "coolbench: -bench-native-json or -bench-native-check required in native bench mode")
		return 2
	}
	doc, err := benchNativeRun(procs, names, *small, *reps)
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
	fmt.Printf("wrote %s (%d cells)\n", *jsonOut, len(doc.Results))
	return 0
}

// benchNativeRun measures every (app, P) cell on the native backend,
// using each app's most locality-optimised variant (the same reference
// choice as the simulator bench harness).
func benchNativeRun(procs []int, names []string, small bool, reps int) (*nativeDoc, error) {
	if reps < 1 {
		reps = 1
	}
	if len(names) == 0 {
		names = apps.Names()
	}
	doc := &nativeDoc{
		GoVersion: runtime.Version(),
		OSArch:    runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Reps:      reps,
		Small:     small,
		Procs:     procs,
	}
	for _, name := range names {
		app, ok := apps.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown app %q (have %v)", name, apps.Names())
		}
		variant := app.Variants[len(app.Variants)-1]
		size := nativeFullSizes[name]
		if small {
			size = nativeSmallSizes[name]
		}
		for _, p := range procs {
			e := nativeEntry{
				Name:    fmt.Sprintf("%s/%s/P%d", name, variant, p),
				App:     name,
				Variant: variant,
				Procs:   p,
				Size:    size,
			}
			for rep := 0; rep < reps; rep++ {
				cfg := cool.Config{
					Processors: p,
					Backend:    cool.BackendNative,
				}
				res, err := app.RunCfg(cfg, variant, size)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", e.Name, err)
				}
				t := res.Report.Total
				// A healthy (fault-free, retry-free) run must not count
				// robustness events; a nonzero counter here is a native
				// scheduler bug, so it fails the sweep — and with it the
				// -bench-native-check CI smoke.
				if t.FaultEvents != 0 || t.Redistributed != 0 || t.Retries != 0 || t.GaveUp != 0 {
					return nil, fmt.Errorf(
						"%s: healthy native run counted robustness events (faults=%d redistributed=%d retries=%d gaveup=%d)",
						e.Name, t.FaultEvents, t.Redistributed, t.Retries, t.GaveUp)
				}
				// Likewise the pool must have stayed fixed: a healthy run
				// with no elastic config reporting membership events means
				// a worker retired (or appeared) spontaneously.
				if evs := res.Report.PoolEvents; len(evs) != 0 {
					return nil, fmt.Errorf(
						"%s: healthy fixed-pool run reported %d pool event(s), first %+v",
						e.Name, len(evs), evs[0])
				}
				// Cycles are wall-clock nanoseconds on the native backend.
				if rep == 0 || res.Cycles < e.WallNS {
					e.WallNS = res.Cycles
					e.TasksRun = t.TasksRun
					e.Steals = t.StealsLocal + t.StealsRemote
					e.SetSteals = t.SetSteals
					e.FailedSteals = t.FailedSteals
					e.LockContention = t.LockContention
					e.Verify = res.Verify
				}
			}
			if e.WallNS > 0 {
				e.Throughput = float64(e.TasksRun) / (float64(e.WallNS) / 1e9)
			}
			fmt.Printf("%-32s wall=%-12s tasks=%-8d thru=%-12.0f steals=%-6d failed=%-6d contention=%d\n",
				e.Name, time.Duration(e.WallNS), e.TasksRun, e.Throughput,
				e.Steals, e.FailedSteals, e.LockContention)
			doc.Results = append(doc.Results, e)
		}
	}
	return doc, nil
}

// benchNativeLoad reads a nativeDoc from disk.
func benchNativeLoad(path string) (*nativeDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc nativeDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// benchNativeCheck reruns the baseline's configuration and fails (exit
// 1) on a >20% regression of the summed wall-clock — the same gate
// policy as the simulator smoke bench: the sum, not any single cell, is
// gated because per-cell wall times on shared CI machines are noisy.
func benchNativeCheck(path string) int {
	base, err := benchNativeLoad(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 1
	}
	doc, err := benchNativeRun(base.Procs, nil, base.Small, base.Reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 1
	}
	byName := make(map[string]nativeEntry, len(base.Results))
	for _, e := range base.Results {
		byName[e.Name] = e
	}
	var oldSum, newSum int64
	for _, e := range doc.Results {
		b, ok := byName[e.Name]
		if !ok {
			fmt.Printf("%-32s NEW (no baseline entry)\n", e.Name)
			continue
		}
		oldSum += b.WallNS
		newSum += e.WallNS
		ratio := 0.0
		if b.WallNS > 0 {
			ratio = float64(e.WallNS) / float64(b.WallNS)
		}
		fmt.Printf("%-32s wall %12s -> %-12s (x%.2f)  thru %12.0f -> %-12.0f\n",
			e.Name, time.Duration(b.WallNS), time.Duration(e.WallNS), ratio,
			b.Throughput, e.Throughput)
	}
	if oldSum == 0 {
		fmt.Fprintln(os.Stderr, "coolbench: baseline has no comparable entries")
		return 1
	}
	ratio := float64(newSum) / float64(oldSum)
	fmt.Printf("total native wall %s -> %s (x%.3f, gate x1.20)\n",
		time.Duration(oldSum), time.Duration(newSum), ratio)
	if ratio > 1.20 {
		fmt.Fprintf(os.Stderr, "coolbench: native wall-clock regression x%.3f exceeds the 20%% gate\n", ratio)
		return 1
	}
	return 0
}
