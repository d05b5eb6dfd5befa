package main

import (
	"fmt"
	"runtime"
	"strings"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// scheduleTokens are the Verify tokens whose values legitimately depend
// on execution order at P>1. It is the list internal/xcheck declares
// (its scheduleTokens table): the router's cost depends on the order
// wires observe each other's congestion, and the linear-algebra
// residuals shift at rounding level with FP accumulation order. Every
// other token must match the P=1 simulator reference exactly.
var scheduleTokens = map[string]map[string]bool{
	"locusroute": {"cost": true},
	"pancho":     {"residual": true, "maxdiff": true},
	"blockcho":   {"maxdiff": true},
}

// compareVerify checks one run's Verify string against the reference
// for the same app, size and variant. It returns "" when the run is
// correct, otherwise a one-line reason. Tokens are compared one by one
// in order; only the app's schedule tokens may differ, and locusroute
// must report consistent=true.
func compareVerify(app, want, got string) string {
	wt, gt := strings.Fields(want), strings.Fields(got)
	if len(wt) != len(gt) {
		return fmt.Sprintf("%s: verify %q has %d tokens, reference %q has %d", app, got, len(gt), want, len(wt))
	}
	for i := range wt {
		wk, wv, _ := strings.Cut(wt[i], "=")
		gk, gv, _ := strings.Cut(gt[i], "=")
		if wk != gk {
			return fmt.Sprintf("%s: token %d is %q, reference has %q", app, i, gk, wk)
		}
		if app == "locusroute" && gk == "consistent" && gv != "true" {
			return fmt.Sprintf("%s: consistent=%s", app, gv)
		}
		if scheduleTokens[app][gk] {
			continue
		}
		if wv != gv {
			return fmt.Sprintf("%s: %s=%s, reference %s=%s", app, gk, gv, wk, wv)
		}
	}
	return ""
}

// simReference runs app/variant/size on the simulator at P=1 — the
// schedule-free reference every benchmark output is compared against.
func simReference(app, variant string, size int) (apps.Result, error) {
	a, ok := apps.Lookup(app)
	if !ok {
		return apps.Result{}, fmt.Errorf("no app %q", app)
	}
	r, err := a.RunCfg(cool.Config{Processors: 1}, variant, size)
	if err != nil {
		return apps.Result{}, fmt.Errorf("%s reference: %w", app, err)
	}
	if msg := compareVerify(app, r.Verify, r.Verify); msg != "" {
		return apps.Result{}, fmt.Errorf("%s reference is itself wrong: %s", app, msg)
	}
	// Collect the simulation's garbage now: left to overlap the next
	// work's heap, it made peak RSS depend on GC timing (33-43 MB across
	// native-fine runs instead of 25-27 MB).
	runtime.GC()
	return r, nil
}

// lastVariant is an app's full-affinity program version.
func lastVariant(a apps.App) string { return a.Variants[len(a.Variants)-1] }
