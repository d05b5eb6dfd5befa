package apps

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	cool "github.com/coolrts/cool"
)

func TestCatalogCoversEveryApp(t *testing.T) {
	names := CatalogNames()
	if len(names) != len(Names()) {
		t.Fatalf("catalog has %d entries, registry has %d apps", len(names), len(Names()))
	}
	for _, name := range names {
		e, ok := CatalogLookup(name)
		if !ok {
			t.Fatalf("CatalogNames listed %q but CatalogLookup missed it", name)
		}
		app, ok := Lookup(e.App)
		if !ok {
			t.Fatalf("catalog entry %q names unregistered app %q", name, e.App)
		}
		found := false
		for _, v := range app.Variants {
			if v == e.Variant {
				found = true
			}
		}
		if !found {
			t.Fatalf("catalog entry %q names unknown variant %q (have %v)", name, e.Variant, app.Variants)
		}
		for _, preset := range []string{"small", "medium", "large"} {
			if _, err := CatalogSize(name, preset); err != nil {
				t.Fatalf("catalog entry %q: %v", name, err)
			}
		}
	}
	if _, err := CatalogSize("pancho", "jumbo"); err == nil || !strings.Contains(err.Error(), "preset") {
		t.Fatalf("bogus preset accepted (err=%v)", err)
	}
	if _, err := CatalogSize("nonesuch", ""); err == nil {
		t.Fatal("bogus app accepted")
	}
}

// TestCatalogRunsWarmOnBothBackends is the serving layer's core
// contract: every catalog job runs on a warm runtime — fresh, then
// again after Reset — and the second run verifies identically (up to
// nativeScheduleTol, see diffCatalogVerify).
func TestCatalogRunsWarmOnBothBackends(t *testing.T) {
	for _, backend := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
		for _, name := range CatalogNames() {
			rt, err := cool.NewRuntime(cool.Config{Processors: 4, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			first, err := RunCatalogOn(rt, name, "small")
			if err != nil {
				t.Fatalf("%v/%s cold: %v", backend, name, err)
			}
			if first.Report.Total.TasksRun == 0 || first.Verify == "" {
				t.Fatalf("%v/%s cold result %+v", backend, name, first)
			}
			if err := rt.Reset(); err != nil {
				t.Fatalf("%v/%s Reset: %v", backend, name, err)
			}
			second, err := RunCatalogOn(rt, name, "small")
			if err != nil {
				t.Fatalf("%v/%s warm: %v", backend, name, err)
			}
			if d := diffCatalogVerify(backend, name, first.Verify, second.Verify); d != "" {
				t.Fatalf("%v/%s warm verify %q differs from cold %q: %s", backend, name, second.Verify, first.Verify, d)
			}
		}
	}
}

// TestCatalogPreparedMatchesFresh is the residency fast path's
// correctness contract: a job replayed from cached analyze-phase state
// verifies identically to one that ran the analyze phase inline, on
// both backends, across repeated reuse of the same handle (up to
// nativeScheduleTol, see diffCatalogVerify).
func TestCatalogPreparedMatchesFresh(t *testing.T) {
	prep, err := PrepareCatalog("pancho", "small")
	if err != nil {
		t.Fatal(err)
	}
	if prep == nil {
		t.Fatal("pancho advertises no analyze phase")
	}
	for _, backend := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
		rt, err := cool.NewRuntime(cool.Config{Processors: 4, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := RunCatalogOn(rt, "pancho", "small")
		if err != nil {
			t.Fatalf("%v fresh: %v", backend, err)
		}
		for i := 0; i < 2; i++ {
			if err := rt.Reset(); err != nil {
				t.Fatalf("%v Reset %d: %v", backend, i, err)
			}
			cached, err := RunCatalogPrepared(rt, "pancho", "small", prep)
			if err != nil {
				t.Fatalf("%v prepared %d: %v", backend, i, err)
			}
			if d := diffCatalogVerify(backend, "pancho", fresh.Verify, cached.Verify); d != "" {
				t.Fatalf("%v prepared run %d verify %q differs from fresh %q: %s", backend, i, cached.Verify, fresh.Verify, d)
			}
		}
	}
}

// TestCatalogPreparedRejectsMismatch: a handle built for one size must
// not silently serve another.
func TestCatalogPreparedRejectsMismatch(t *testing.T) {
	prep, err := PrepareCatalog("pancho", "small")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCatalogPrepared(rt, "pancho", "medium", prep); err == nil {
		t.Fatal("medium job accepted a small-size prep handle")
	}
	if _, err := RunCatalogPrepared(rt, "pancho", "small", "bogus"); err == nil {
		t.Fatal("foreign handle type accepted")
	}
	// Apps with no analyze phase report a nil handle and still run.
	gp, err := PrepareCatalog("gauss", "small")
	if err != nil || gp != nil {
		t.Fatalf("gauss prep = %v, %v; want nil, nil", gp, err)
	}
}

func TestCatalogHasPrepare(t *testing.T) {
	if !CatalogHasPrepare("pancho") {
		t.Fatal("pancho lost its analyze phase")
	}
	if CatalogHasPrepare("gauss") || CatalogHasPrepare("nonesuch") {
		t.Fatal("prep advertised where none exists")
	}
}

// tolerance is how far apart two runs may print one numeric Verify
// token: |x-y| <= abs + rel*max(|x|, |y|).
type tolerance struct{ abs, rel float64 }

// nativeScheduleTol lists, per app, the Verify tokens that two native
// P>1 runs may print differently because they took different schedules,
// and how far apart they may be. Every other token must match exactly.
var nativeScheduleTol = map[string]map[string]tolerance{
	// The router's cost depends on the order in which wires see each
	// other's congestion. Over 100 warm native P=4 runs of the "small"
	// preset under -race it spread over 5776-5860 (1.5%).
	"locusroute": {"cost": {rel: 0.05}},
	// Floating-point accumulation order follows the schedule, so the
	// residual and the distance from the serial factor move at rounding
	// level (~1e-16). A real numerical fault is orders of magnitude
	// larger (the app itself rejects a residual above 1e-9).
	"pancho": {"residual": {abs: 1e-12}, "maxdiff": {abs: 1e-12}},
}

// diffCatalogVerify compares two Verify strings of app token by token
// and describes the first difference, or returns "" when they agree.
// Every token must match exactly, except that on the native backend the
// app's nativeScheduleTol tokens need only be finite numbers within
// their tolerance of each other.
func diffCatalogVerify(backend cool.Backend, app, want, got string) string {
	var tols map[string]tolerance
	if backend == cool.BackendNative {
		tols = nativeScheduleTol[app]
	}
	a, b := strings.Fields(want), strings.Fields(got)
	if len(a) != len(b) {
		return fmt.Sprintf("verify shape differs: %q vs %q", want, got)
	}
	for i := range a {
		key, av, _ := strings.Cut(a[i], "=")
		if a[i] == b[i] {
			continue
		}
		if tol, ok := tols[key]; ok {
			_, bv, _ := strings.Cut(b[i], "=")
			x, errx := strconv.ParseFloat(av, 64)
			y, erry := strconv.ParseFloat(bv, 64)
			if errx == nil && erry == nil && math.Abs(x-y) <= tol.abs+tol.rel*math.Max(math.Abs(x), math.Abs(y)) {
				continue
			}
		}
		return fmt.Sprintf("%s: want %q, got %q", key, a[i], b[i])
	}
	return ""
}

func TestDiffCatalogVerify(t *testing.T) {
	cases := []struct {
		backend   cool.Backend
		app       string
		want, got string
		same      bool
	}{
		{cool.BackendNative, "pancho", "residual=1.2e-16 maxdiff=0.0e+00 panels=9", "residual=2.5e-16 maxdiff=1.1e-16 panels=9", true},
		{cool.BackendNative, "pancho", "residual=1.2e-16 maxdiff=0.0e+00 panels=9", "residual=1.2e-16 maxdiff=0.0e+00 panels=8", false},
		{cool.BackendNative, "pancho", "residual=1.2e-16 panels=9", "residual=3.0e-10 panels=9", false},
		{cool.BackendNative, "pancho", "residual=1.2e-16 panels=9", "residual=NaN panels=9", false},
		{cool.BackendSim, "pancho", "residual=1.2e-16 panels=9", "residual=2.5e-16 panels=9", false},
		{cool.BackendNative, "blockcho", "maxdiff=1.2e-16 blocks=4", "maxdiff=2.5e-16 blocks=4", false},
		{cool.BackendNative, "locusroute", "consistent=true cost=5776 wires=192", "consistent=true cost=5860 wires=192", true},
		{cool.BackendNative, "locusroute", "consistent=true cost=5776 wires=192", "consistent=true cost=6200 wires=192", false},
		{cool.BackendNative, "locusroute", "consistent=true cost=5776 wires=192", "consistent=false cost=5776 wires=192", false},
		{cool.BackendSim, "locusroute", "consistent=true cost=5776 wires=192", "consistent=true cost=5782 wires=192", false},
		{cool.BackendNative, "gauss", "a=1 b=2", "a=1", false},
	}
	for i, tc := range cases {
		if got := diffCatalogVerify(tc.backend, tc.app, tc.want, tc.got); (got == "") != tc.same {
			t.Errorf("case %d: diff = %q, want same=%v", i, got, tc.same)
		}
	}
}
