package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameArrivalsAndMix(t *testing.T) {
	a, b := arrivals(7, offeredRate, 3*time.Second), arrivals(7, offeredRate, 3*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(a, arrivals(8, offeredRate, 3*time.Second)) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
	if n := float64(len(a)); n < 0.8*3*offeredRate || n > 1.2*3*offeredRate {
		t.Fatalf("%v arrivals in 3s at %v/s", n, offeredRate)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 3*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}

	m1, m2, m3 := newRequestMix(7), newRequestMix(7), newRequestMix(8)
	keyed, differs := 0, false
	for i := 0; i < 1000; i++ {
		r1, r2, r3 := m1.next(), m2.next(), m3.next()
		if r1 != r2 {
			t.Fatalf("request %d: %+v vs %+v from the same seed", i, r1, r2)
		}
		differs = differs || r1 != r3
		if r1.Key != "" {
			keyed++
			if r1.App != "pancho" {
				t.Fatalf("keyed request for %s", r1.App)
			}
		} else if r1.App == "pancho" {
			t.Fatal("unkeyed pancho request")
		}
	}
	if !differs {
		t.Fatal("different seeds gave the same request mix")
	}
	if want := 1000 * keyedShare; float64(keyed) < want-60 || float64(keyed) > want+60 {
		t.Fatalf("%d of 1000 requests keyed, want about %v", keyed, want)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 1.75}, {50, 2.5}, {75, 3.25}, {90, 3.7}, {100, 4},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Fatal("percentile modified its input")
	}
	if q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3}); q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 2 3 4", q1, med, q3)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
	if got := percentile([]float64{1, 2, inf}, 50); got != 2 {
		t.Errorf("a failed sample moved the median: %v", got)
	}
	if got := percentile([]float64{1, 2, inf}, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failed sample = %v, want +Inf", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v", got)
	}
}

func TestCompareVerify(t *testing.T) {
	for _, c := range []struct {
		app, want, got string
		ok             bool
	}{
		{"gauss", "checksum=1.5", "checksum=1.5", true},
		{"gauss", "checksum=1.5", "checksum=1.6", false},
		{"pancho", "residual=1.00e-15 maxdiff=2.00e-16 panels=12", "residual=3.00e-15 maxdiff=9.00e-16 panels=12", true},
		{"pancho", "residual=1.00e-15 maxdiff=2.00e-16 panels=12", "residual=1.00e-15 maxdiff=2.00e-16 panels=13", false},
		{"blockcho", "maxdiff=1.00e-15 blocks=4", "maxdiff=2.00e-15 blocks=4", true},
		{"locusroute", "consistent=true cost=100 wires=8", "consistent=true cost=120 wires=8", true},
		{"locusroute", "consistent=true cost=100 wires=8", "consistent=false cost=100 wires=8", false},
		{"locusroute", "consistent=true cost=100 wires=8", "consistent=true cost=100 wires=9", false},
		{"ocean", "checksum=1", "checksum=1 extra=2", false},
		{"ocean", "checksum=1", "chksum=1", false},
		{"phaseflip", "checksum=-235", "checksum=-236", false},
	} {
		msg := compareVerify(c.app, c.want, c.got)
		if (msg == "") != c.ok {
			t.Errorf("compareVerify(%s, %q, %q) = %q, want ok=%v", c.app, c.want, c.got, msg, c.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	if got := covered([][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 26}}); got != 25 {
		t.Fatalf("covered = %d, want 25", got)
	}
	tr := &tracer{}
	at := func(ns int) time.Time { return processStart.Add(time.Duration(ns)) }
	root := tr.span("j", "job", 0, at(0), at(100))
	tr.spanUnder("j", "post", "job", at(0), at(30))
	tr.spanUnder("j2", "run", "job", at(40), at(90)) // j2 is another name for j
	tr.sameJob("j2", "j")
	self := map[string]int64{}
	for _, s := range tr.finish() {
		self[s.Name] = s.Self
		if s.Name != "job" && s.Parent != root {
			t.Errorf("%s has parent %d, want %d", s.Name, s.Parent, root)
		}
	}
	if self["job"] != 20 || self["post"] != 30 || self["run"] != 50 {
		t.Fatalf("self times %v", self)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code prints %v", layer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		if w.gated {
			code = append(code, w.name)
		}
	}
	if !reflect.DeepEqual(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, code)
	}
}

// runWorkload runs the benchmark command in-process and returns its
// result line.
func runWorkload(t *testing.T, args ...string) output {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "--out", t.TempDir()), &stdout, &stderr); code != 0 {
		t.Fatalf("%v exited %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if out.Attempted < 1 || out.Failed < 0 || out.Failed > out.Attempted {
		t.Fatalf("attempted %d failed %d", out.Attempted, out.Failed)
	}
	return out
}

func TestEveryWorkloadPrintsEveryEndToEndMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		if testing.Short() && w.name == "sim-paper" {
			continue // 10s of simulated references
		}
		out := runWorkload(t, "--workload", w.name, "--seed", "3", "--seconds", "0.5", "--trace", "0")
		if len(out.Metrics) != len(b.EndToEnd) {
			t.Errorf("%s printed %d metrics, BENCHMARK.json names %d", w.name, len(out.Metrics), len(b.EndToEnd))
		}
		for _, m := range b.EndToEnd {
			got, ok := out.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value == 0 {
				t.Errorf("%s: metric %s printed as %+v (present %v), want unit %s and a non-zero value", w.name, m.Name, got, ok, m.Unit)
			}
		}
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's probe")
	}
	b := readBenchmarkJSON(t)
	out := runWorkload(t, "--workload", "serve-tenants", "--seed", "3", "--seconds", "1", "--trace", "1")
	for _, m := range b.PerLayer {
		if got, ok := out.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("metric %s printed as %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
}

func TestBadArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
