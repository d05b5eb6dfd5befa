package main

// metricDef names one printed metric and its unit. BENCHMARK.json lists
// the same names and units with their direction (a test checks both
// lists agree); README.md says how each is measured per workload.
type metricDef struct{ name, unit string }

// endToEnd metrics are printed by every workload with --trace 0. Each
// workload maps its primary operation onto the shared names: a gauss
// run at P=nproc (native-fine), an open-loop job from due time to done
// (serve-tenants), or one simulated round of all seven apps (sim-paper).
// latency_cal is that operation's median wall time in units of the
// calibration kernel (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_frac", "frac"},
	{"mem_mb_p50", "MB"},
	{"latency_cal", "cal"},
	{"speedup", "x"},
}

// simApps are the seven apps whose simulated speedups sim-paper reports.
var simApps = []string{"barneshut", "blockcho", "gauss", "locusroute", "ocean", "pancho", "phaseflip"}

// perLayer metrics are printed by every workload with --trace 1.
var perLayer = append([]metricDef{
	{"cool.spawn_ns", "ns"},
	{"cool.spawnn_ns", "ns"},
	{"cool.barrier_us", "us"},
	{"cool.wake_us", "us"},
	{"cool.home_ns", "ns"},
	{"cool.lock_ns", "ns"},
	{"cool.newruntime_us", "us"},
	{"cool.reset_us", "us"},
	{"cool.allocs_per_task", "count"},
	{"native.stolen_frac", "frac"},
	{"native.steal_ok_frac", "frac"},
	{"native.home_frac", "frac"},
	{"native.idle_frac", "frac"},
	{"native.wakes_per_ktask", "count"},
	{"native.lock_contention_per_ktask", "count"},
	{"native.tasks_per_run", "count"},
	{"serve.post_rtt_ms_p50", "ms"},
	{"serve.handler_us_p50", "us"},
	{"serve.route_us_p50", "us"},
	{"serve.admit_us_p50", "us"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p90", "ms"},
	{"serve.run_resident_ms_p50", "ms"},
	{"serve.run_miss_ms_p50", "ms"},
	{"serve.run_unkeyed_ms_p50", "ms"},
	{"serve.resident_hit_frac", "frac"},
	{"serve.gen_lag_ms_p99", "ms"},
	{"apps.prepare_ms", "ms"},
	{"sim.ns_per_ref", "ns"},
	{"sim.ns_per_task", "ns"},
	{"sim.steal_ok_frac", "frac"},
	{"sim.miss_rate", "frac"},
	{"sim.local_frac", "frac"},
	{"sim.home_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}, simSpeedupDefs()...)

func simSpeedupDefs() []metricDef {
	out := make([]metricDef, len(simApps))
	for i, a := range simApps {
		out[i] = metricDef{"sim.speedup." + a, "x"}
	}
	return out
}
