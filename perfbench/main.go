// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time from a seed, checks every output against a
// schedule-free simulator reference, and prints the metrics as one JSON
// object on the last line of standard output:
//
//	bash perfbench/run.sh --workload native-fine --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// names; with --trace 1 they are its per-layer metrics, measured by a
// separate traced run (see README.md). Everything is timed from outside
// the program: the benchmark only times calls into public functions of
// cool, internal/apps and internal/serve and reads their counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

var processStart = time.Now()

var inf = math.Inf(1)

// heldOutSeed is never used while tuning the benchmark or a change: a
// claim made on other seeds can be re-checked on it.
const heldOutSeed = 20260917

// maxFailedFrac is the share of failed operations above which a run is
// reported incorrect; it equals the ok_frac bound in BENCHMARK.json.
const maxFailedFrac = 0.005

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// opts configures one workload run.
type opts struct {
	seed    int64
	seconds float64
	nproc   int
	trace   bool    // alternate traced and untraced operations, record spans
	probe   bool    // short layer probe inside another workload's traced run
	tr      *tracer // nil unless trace
}

func (o opts) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// result is what a workload run measured.
type result struct {
	attempted, failed int64
	invalid           bool     // a failure no known native race can explain
	failures          []string // the first few failure reasons
	setupS            []float64
	mem               *memSampler // started when set-up ends
	e2e, layer        map[string]float64
	overhead          float64 // traced/untraced primary metric - 1
	info              []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed operation: an error, a rejection or a wrong
// output of a native run at P>1, where an app race could strike.
func (r *result) fail(msg string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

// broken counts a failure that no schedule can excuse — a simulator
// output that differs from its reference or from an earlier round, a
// serial run that differs, lost jobs — and marks the run incorrect.
func (r *result) broken(msg string) {
	r.fail(msg)
	r.invalid = true
}

// correct reports whether the run's outputs are correct: nothing
// broken, and failed operations within maxFailedFrac of those attempted
// (they still count in failed and ok_frac).
func (r *result) correct() bool {
	return !r.invalid && float64(r.failed) <= maxFailedFrac*float64(r.attempted)
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// setup runs f setupReps times (once in a probe) and records each
// duration; the first is timed from process start. Memory sampling
// starts when it returns.
func (r *result) setup(o opts, f func() error) error {
	reps := setupReps
	if o.probe {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		if i == 0 && !o.probe {
			start = processStart
		}
		if err := f(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		runtime.GC() // set-up garbage must not overlap the measured heap
		r.setupS = append(r.setupS, time.Since(start).Seconds())
	}
	if !o.probe {
		r.mem = startMemSampler()
	}
	return nil
}

// memSampler samples the Go runtime's estimate of its resident memory —
// everything it has mapped minus what it has returned to the OS — every
// memSamplePeriod until stopped. getrusage's peak RSS was no use as a
// gate: set by one GC-timing accident per run, it spread 38% across
// native-fine seeds, while the median of these samples repeats within a
// few percent.
type memSampler struct {
	stopc, done chan struct{}
	mb          []float64
}

const memSamplePeriod = 100 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	m.mb = append(m.mb, residentMB())
	go func() {
		defer close(m.done)
		t := time.NewTicker(memSamplePeriod)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.mb = append(m.mb, residentMB())
			case <-m.stopc:
				return
			}
		}
	}()
	return m
}

// stop ends sampling and returns the median sample in MB.
func (m *memSampler) stop() float64 {
	close(m.stopc)
	<-m.done
	return median(m.mb)
}

func residentMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

type workload struct {
	name  string
	run   func(opts) (*result, error)
	probe float64 // seconds a layer probe of this workload measures
	// gated workloads are the ones BENCHMARK.json lists. serve-tenants
	// runs by hand and as the probe that gives every traced run its
	// serve.* metrics, but is not gated: its closed-loop rate moved 20%
	// between seeds of the same code (routing decides how the 8 keys
	// share the 2 runtimes, whatever the host's speed), and its
	// open-loop p50 37%.
	gated bool
}

var workloads = []workload{
	{"native-fine", nativeFine, 1, true},
	{"serve-tenants", serveTenants, 2, false},
	{"sim-paper", simPaper, 0, true},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: native-fine, serve-tenants or sim-paper")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	o := opts{seed: *seed, seconds: *seconds, nproc: runtime.NumCPU(), trace: *trace == 1}
	if o.trace {
		o.tr = &tracer{}
	}
	env := environment(w.name, o)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "# env %s\n", envJSON)

	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	memMB := res.mem.stop()
	for _, line := range res.info {
		fmt.Fprintf(stdout, "# %s\n", line)
	}
	for _, f := range res.failures {
		fmt.Fprintf(stdout, "# FAILED %s\n", f)
	}

	var metrics map[string]metricValue
	if o.trace {
		if err := layerProbes(w.name, o, res, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		res.layer["trace.overhead_frac"] = res.overhead
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
		if err := o.tr.write(path, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		metrics, err = collect(perLayer, res.layer)
	} else {
		res.e2e["setup_s"] = median(res.setupS)
		res.e2e["ok_frac"] = float64(res.attempted-res.failed) / float64(res.attempted)
		res.e2e["mem_mb_p50"] = memMB
		q1, _, q3 := quartiles(res.setupS)
		fmt.Fprintf(stdout, "# setup_s runs=%v q1=%.4f q3=%.4f  error_rate=%.6f (%d of %d)  max_rss_mb=%.2f (getrusage peak, set-up included)\n",
			res.setupS, q1, q3, 1-res.e2e["ok_frac"], res.failed, res.attempted, maxRSSMB())
		metrics, err = collect(endToEnd, res.e2e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if res.attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operation\n", w.name)
		return 1
	}
	line, err := json.Marshal(output{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// collect picks the listed metrics out of vals; every one must have
// been measured and be a finite number.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var bad []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, fmt.Sprintf("%s=%v", d.name, v))
			continue
		}
		out[d.name] = metricValue{v, d.unit}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return nil, fmt.Errorf("metrics not measured: %v", bad)
	}
	return out, nil
}

// layerProbes fills in the per-layer metrics of the layers the traced
// workload does not exercise, by short untraced runs of the workloads
// that do, plus the cool/apps microbenchmarks.
func layerProbes(traced string, o opts, res *result, stdout io.Writer) error {
	for _, w := range workloads {
		if w.name == traced {
			continue
		}
		po := opts{seed: o.seed, seconds: w.probe, nproc: o.nproc, probe: true}
		pr, err := w.run(po)
		if err != nil {
			return fmt.Errorf("%s probe: %w", w.name, err)
		}
		for _, f := range pr.failures {
			fmt.Fprintf(stdout, "# FAILED %s probe: %s\n", w.name, f)
		}
		res.attempted += pr.attempted
		res.failed += pr.failed
		res.invalid = res.invalid || pr.invalid
		for k, v := range pr.layer {
			res.layer[k] = v
		}
	}
	lines, err := micro(o, res.layer)
	if err != nil {
		return fmt.Errorf("microbenchmarks: %w", err)
	}
	for _, l := range lines {
		fmt.Fprintf(stdout, "# %s\n", l)
	}
	return nil
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// environment is the validity record printed with every result.
func environment(name string, o opts) map[string]any {
	env := map[string]any{
		"workload":      name,
		"seed":          o.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        "unknown (built outside a VCS checkout)",
	}
	if name == "serve-tenants" {
		env["offered_rate_per_s"] = offeredRate
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["commit_modified"] = s.Value == "true"
			}
		}
	}
	return env
}
