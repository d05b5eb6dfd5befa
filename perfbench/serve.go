package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
	"github.com/coolrts/cool/internal/serve"
)

// serve-tenants: an in-process serve.Service with coolserve's defaults
// (space-affinity routing, always-admit, 4 resident spaces) behind
// serve.Handler on a loopback listener. One generator goroutine sends
// over one keep-alive connection: phase 1 is a seeded Poisson open
// loop at offeredRate, phase 2 a closed loop holding
// inflightPerRuntime jobs in flight per runtime. A keyedShare of the
// jobs are keyed pancho/small over tenantKeys keys — exactly the pool's
// residency slots, so routing decides hit versus miss — and the rest
// are unkeyed small jobs of the other six catalog apps.

// offeredRate is the phase-1 open-loop rate in jobs/s: about 30% of the
// closed-loop capacity of 2 runtimes x P=1 on a 2-core host (360-420
// jobs/s across runs). At half capacity, queueing amplified the host's run-to-run
// speed drift to a 20-27% spread of p50/p90 latency across seeds. The
// serve-tenants entry of BENCHMARK.json records the rate.
const offeredRate = 120.0

const (
	serveRuntimes = 2
	// serveProcs is one worker per runtime. At P=2 the known native races
	// of pancho and phaseflip (the ROADMAP's first open item) failed 1-3
	// of every ~5,500 jobs at random, so two sets of runs of the same code
	// could not agree on the failure count; at P=1 no job fails. It also
	// keeps the pool's workers within the host's two cores.
	serveProcs     = 1
	residentSpaces = 4
	tenantKeys     = serveRuntimes * residentSpaces
	// With 2 jobs per runtime the closed loop's rate swung 351-485
	// jobs/s between seeds as routing left one runtime's queue empty; 4
	// keep both busy (412-456).
	inflightPerRuntime = 4
	// keyedShare is not one half: the unkeyed jobs take about 2 ms and
	// the keyed ones about 5 ms, so with a half-half mix the median
	// latency sat in the gap between the two and moved 30% with the
	// seeded mix.
	keyedShare = 0.6
	openShare  = 0.6 // share of --seconds spent in the open loop
	jobTimeout = 60 * time.Second
	// statWindow splits each phase into windows; latency and throughput
	// are medians over windows, so a host stall that slows a minority of
	// a run's windows does not move them, while every job still counts
	// in its window.
	statWindow = time.Second
	// calBatch is how many calibration kernels run on the idle service
	// before and after the open loop.
	calBatch = 15
)

// requestMix is the seeded job stream.
type requestMix struct {
	rng    *rand.Rand
	others []string // catalog apps other than pancho
}

func newRequestMix(seed int64) *requestMix {
	// A stream of its own: sharing the arrival schedule's source would
	// correlate inter-arrival gaps with job kinds.
	m := &requestMix{rng: rand.New(rand.NewSource(seed ^ 0x6d6978))}
	for _, a := range apps.CatalogNames() {
		if a != "pancho" {
			m.others = append(m.others, a)
		}
	}
	return m
}

func (m *requestMix) next() serve.Request {
	if m.rng.Float64() < keyedShare {
		return serve.Request{App: "pancho", Size: "small", Key: fmt.Sprintf("tenant-%d", m.rng.Intn(tenantKeys))}
	}
	return serve.Request{App: m.others[m.rng.Intn(len(m.others))], Size: "small"}
}

// arrivals returns the open loop's send offsets: a Poisson process at
// rate jobs/s over d.
func arrivals(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// medianOfWindows returns the median over windows of each window's
// median.
func medianOfWindows(w map[int][]float64) float64 {
	var meds []float64
	for _, xs := range w {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

// samples is a concurrency-safe sample list.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (s *samples) get() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// jobRec is one submitted job as the client saw it.
type jobRec struct {
	req    serve.Request
	open   bool // phase-1 (open loop) job
	traced bool
	due    time.Time
	sent   time.Time
	acked  time.Time
	done   time.Time
	id     string
	snap   serve.Snapshot
	msg    string // failure reason; "" when correct
}

// runInfo is what the runner wrapper saw of one job.
type runInfo struct {
	kind string // resident, miss or unkeyed
	ms   float64
}

// serveBench is one service under test plus its client.
type serveBench struct {
	o       opts
	refs    map[string]string // app -> P=1 simulator Verify at the small preset
	svc     *serve.Service
	srv     *http.Server
	served  chan error
	url     string
	client  *http.Client
	seq     int
	tracing atomic.Bool // wrappers time and record only while set
	wg      sync.WaitGroup

	mu   sync.Mutex
	runs map[string]runInfo // by service job ID

	handlerUS, routeUS, admitUS samples
}

// timedRouter and timedAdmission wrap the real policies passed in
// serve.Config and time each decision while tracing.
type timedRouter struct {
	serve.Router
	b *serveBench
}

func (r timedRouter) Pick(j *serve.Job, s []serve.EntryStat) int {
	if !r.b.tracing.Load() {
		return r.Router.Pick(j, s)
	}
	t0 := time.Now()
	i := r.Router.Pick(j, s)
	t1 := time.Now()
	r.b.routeUS.add(t1.Sub(t0).Seconds() * 1e6)
	r.b.o.tr.spanUnder(j.ID, "route", "handler", t0, t1)
	return i
}

type timedAdmission struct {
	serve.Admission
	b *serveBench
}

func (a timedAdmission) Admit(j *serve.Job, s []serve.EntryStat) error {
	if !a.b.tracing.Load() {
		return a.Admission.Admit(j, s)
	}
	t0 := time.Now()
	err := a.Admission.Admit(j, s)
	t1 := time.Now()
	a.b.admitUS.add(t1.Sub(t0).Seconds() * 1e6)
	a.b.o.tr.spanUnder(j.ID, "admit", "handler", t0, t1)
	return err
}

// runner wraps serve.CatalogRunner, classifying each job by the
// residency hit/miss counters it moved.
func (b *serveBench) runner(rt *cool.Runtime, job *serve.Job, res *serve.Residency) (string, error) {
	h0, m0 := res.Hits(), res.Misses()
	t0 := time.Now()
	v, err := serve.CatalogRunner(rt, job, res)
	t1 := time.Now()
	kind := "unkeyed"
	switch {
	case res.Hits() > h0:
		kind = "resident"
	case res.Misses() > m0:
		kind = "miss"
	}
	b.mu.Lock()
	b.runs[job.ID] = runInfo{kind, t1.Sub(t0).Seconds() * 1e3}
	b.mu.Unlock()
	if b.tracing.Load() {
		b.o.tr.spanUnder(job.ID, "run", "job", t0, t1)
	}
	return v, err
}

// handler wraps serve.Handler, timing each submission while tracing.
func (b *serveBench) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !b.tracing.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		b.handlerUS.add(t1.Sub(t0).Seconds() * 1e6)
		b.o.tr.spanUnder(r.Header.Get("X-Bench-Job"), "handler", "post", t0, t1)
	})
}

func startServeBench(o opts, refs map[string]string) (*serveBench, error) {
	b := &serveBench{o: o, refs: refs, runs: map[string]runInfo{}, served: make(chan error, 1)}
	router, err := serve.NewRouter("space-affinity", serveProcs)
	if err != nil {
		return nil, err
	}
	admit, err := serve.NewAdmission("always", serve.AdmissionConfig{})
	if err != nil {
		return nil, err
	}
	// Layer wrappers only in traced runs and probes; end-to-end runs
	// serve through the unwrapped policies and handler.
	wrapped := o.trace || o.probe
	if wrapped {
		router, admit = timedRouter{router, b}, timedAdmission{admit, b}
	}
	b.svc, err = serve.NewService(serve.Config{
		Runtimes: serveRuntimes, Procs: serveProcs, Router: router, Admission: admit,
		Runner: b.runner, ResidentSpaces: residentSpaces,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.svc.Drain()
		return nil, err
	}
	h := serve.Handler(b.svc)
	if wrapped {
		h = b.handler(h)
	}
	b.srv = &http.Server{Handler: h}
	go func() { b.served <- b.srv.Serve(ln) }()
	b.url = "http://" + ln.Addr().String() + "/jobs"
	b.client = &http.Client{Timeout: jobTimeout, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
	return b, nil
}

// stop shuts the listener and the pool down and waits for every
// goroutine the bench started.
func (b *serveBench) stop() {
	b.wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // a timeout only means a connection was slow to close
	<-b.served
	b.client.CloseIdleConnections()
	b.svc.Drain()
}

// submit POSTs one job and starts a waiter that records its outcome and
// then calls done (if non-nil) with the record. It returns false when
// the POST itself failed; the record is then already marked failed.
func (b *serveBench) submit(rec *jobRec, done func(*jobRec)) bool {
	b.seq++
	rec.traced = b.tracing.Load()
	seqID := "bench-" + strconv.Itoa(b.seq)
	body, _ := json.Marshal(rec.req) // a Request always marshals
	rec.sent = time.Now()
	id, err := b.post(seqID, body)
	rec.acked = time.Now()
	if rec.traced {
		b.o.tr.spanUnder(seqID, "post", "job", rec.sent, rec.acked)
	}
	if err != nil {
		rec.msg = err.Error()
		return false
	}
	rec.id = id
	b.o.tr.sameJob(id, seqID)
	job, ok := b.svc.Job(id)
	if !ok {
		rec.msg = "service has no job " + id
		return false
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		timeout := time.NewTimer(jobTimeout)
		defer timeout.Stop()
		select {
		case <-job.Done():
			rec.done = time.Now()
			rec.snap = job.Snapshot()
			rec.msg = b.check(rec)
		case <-timeout.C:
			rec.done = time.Now()
			rec.msg = "no result after " + jobTimeout.String()
		}
		if rec.traced {
			b.o.tr.spanUnder(seqID, "job", "", rec.due, rec.done)
			if s := rec.snap; s.StartNS > 0 {
				b.o.tr.spanUnder(seqID, "queue", "job", time.Unix(0, s.SubmitNS), time.Unix(0, s.StartNS))
			}
		}
		if done != nil {
			done(rec)
		}
	}()
	return true
}

func (b *serveBench) post(seqID string, body []byte) (string, error) {
	req, err := http.NewRequest(http.MethodPost, b.url, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Bench-Job", seqID)
	resp, err := b.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var snap serve.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return "", fmt.Errorf("POST /jobs: %w", err)
	}
	return snap.ID, nil
}

// check verifies a finished job against its app's reference.
func (b *serveBench) check(rec *jobRec) string {
	s := rec.snap
	if s.State != serve.JobDone.String() {
		return fmt.Sprintf("%s %s: %s %s", s.App, s.ID, s.State, s.Error)
	}
	return compareVerify(s.App, b.refs[s.App], s.Verify)
}

// closedLoop keeps target jobs in flight until end, then waits for the
// last ones. It returns every record submitted.
func (b *serveBench) closedLoop(mix *requestMix, target int, end time.Time) []*jobRec {
	var recs []*jobRec
	completions := make(chan *jobRec, target) // at most target jobs are in flight
	inflight := 0
	for {
		for inflight < target && time.Now().Before(end) {
			rec := &jobRec{req: mix.next()}
			rec.due = time.Now()
			recs = append(recs, rec)
			if b.submit(rec, func(r *jobRec) { completions <- r }) {
				inflight++
			}
		}
		if inflight == 0 {
			return recs
		}
		<-completions
		inflight--
	}
}

func serveReferences() (map[string]string, error) {
	refs := map[string]string{}
	for _, name := range apps.CatalogNames() {
		e, _ := apps.CatalogLookup(name)
		size, err := apps.CatalogSize(name, "small")
		if err != nil {
			return nil, err
		}
		r, err := simReference(name, e.Variant, size)
		if err != nil {
			return nil, err
		}
		refs[name] = r.Verify
	}
	return refs, nil
}

func serveTenants(o opts) (*result, error) {
	res := newResult()
	var b *serveBench
	err := res.setup(o, func() error {
		if b != nil {
			b.stop()
			b = nil
		}
		refs, err := serveReferences()
		if err != nil {
			return err
		}
		nb, err := startServeBench(o, refs)
		if err != nil {
			return err
		}
		b = nb
		// Warm-up: every app twice and every tenant key once, through the
		// same HTTP path, closed loop.
		var reqs []serve.Request
		for _, a := range apps.CatalogNames() {
			if a != "pancho" {
				reqs = append(reqs, serve.Request{App: a, Size: "small"}, serve.Request{App: a, Size: "small"})
			}
		}
		for k := 0; k < tenantKeys; k++ {
			reqs = append(reqs, serve.Request{App: "pancho", Size: "small", Key: fmt.Sprintf("tenant-%d", k)})
		}
		for _, req := range reqs {
			rec := &jobRec{req: req, due: time.Now()}
			b.submit(rec, nil)
			b.wg.Wait()
			res.attempted++
			if rec.msg != "" {
				res.fail("warm-up " + rec.msg)
			}
		}
		return nil
	})
	if err != nil {
		if b != nil {
			b.stop()
		}
		return nil, err
	}
	before := b.svc.Report()
	b.tracing.Store(o.probe)

	// Phase 1: open loop. In a traced run the four quarters alternate
	// untraced and traced, so the overhead is measured in-run.
	total := o.duration()
	openD := time.Duration(openShare * float64(total))
	sched := arrivals(o.seed, offeredRate, openD)
	mix := newRequestMix(o.seed)
	var recs []*jobRec
	var cal calibration
	cal.sample(calBatch)
	start := time.Now()
	for _, at := range sched {
		if o.trace {
			b.tracing.Store(int(4*at/openD)%2 == 1)
		}
		rec := &jobRec{req: mix.next(), open: true, due: start.Add(at)}
		if d := time.Until(rec.due); d > 0 {
			time.Sleep(d)
		}
		recs = append(recs, rec)
		b.submit(rec, nil)
	}
	b.wg.Wait()
	cal.sample(calBatch)

	// Phase 2: closed loop at inflightPerRuntime jobs per runtime.
	if o.trace {
		b.tracing.Store(true)
	}
	closedStart := time.Now()
	closedEnd := closedStart.Add(total - openD)
	closed := b.closedLoop(mix, inflightPerRuntime*serveRuntimes, closedEnd)
	b.stop()
	after := b.svc.Report() // after the drain: pool loops count a job after finishing it
	recs = append(recs, closed...)

	var lat, latTraced, latPlain, lag, rtt, queue []float64
	latWin := map[int][]float64{} // open-loop latencies by due-time window
	closedD := closedEnd.Sub(closedStart)
	closedWin := make([]float64, max(1, int(closedD/statWindow))) // completions per window
	closedW := closedD / time.Duration(len(closedWin))
	runs := map[string][]float64{}
	for _, r := range recs {
		res.attempted++
		if r.msg != "" {
			res.fail(r.msg)
		}
		if !r.acked.IsZero() {
			rtt = append(rtt, r.acked.Sub(r.sent).Seconds()*1e3)
		}
		if s := r.snap; s.StartNS > 0 {
			queue = append(queue, float64(s.StartNS-s.SubmitNS)/1e6)
		}
		if info, ok := b.runs[r.id]; ok && r.msg == "" {
			runs[info.kind] = append(runs[info.kind], info.ms)
		}
		if !r.open {
			if k := int(r.done.Sub(closedStart) / closedW); r.msg == "" && k < len(closedWin) {
				closedWin[k]++
			}
			continue
		}
		ms := inf // a failed job misses any latency limit
		if r.msg == "" {
			ms = r.done.Sub(r.due).Seconds() * 1e3
		}
		lat = append(lat, ms)
		k := int(r.due.Sub(start) / statWindow)
		latWin[k] = append(latWin[k], ms)
		lag = append(lag, r.sent.Sub(r.due).Seconds()*1e3)
		if r.traced {
			latTraced = append(latTraced, ms)
		} else {
			latPlain = append(latPlain, ms)
		}
	}
	var hits, misses, completed, accepted int64
	for i, e := range after.Runtimes {
		hits += e.PrepHits - before.Runtimes[i].PrepHits
		misses += e.PrepMisses - before.Runtimes[i].PrepMisses
		completed += e.Completed - before.Runtimes[i].Completed
	}
	for _, r := range recs {
		if r.id != "" {
			accepted++
		}
	}
	if completed != accepted { // every admitted job completes exactly once
		res.broken(fmt.Sprintf("service completed %d jobs, %d were accepted", completed, accepted))
	}

	jobMS := medianOfWindows(latWin)
	peak := median(closedWin) / closedW.Seconds()
	res.e2e["latency_cal"] = jobMS / cal.unit()
	res.e2e["speedup"] = median(runs["miss"]) / median(runs["resident"])
	res.infof("open loop: %d jobs at %.0f/s offered, job_ms_p50=%.3f (all jobs; %.3f over %d windows) p90=%.3f p99=%.3f, gen_lag_ms_p99=%.3f",
		len(lat), offeredRate, percentile(lat, 50), jobMS, len(latWin),
		percentile(lat, 90), percentile(lat, 99), percentile(lag, 99))
	res.infof("closed loop: %d in flight, peak_jobs_per_s=%.2f (median of %d windows) over %.2fs",
		inflightPerRuntime*serveRuntimes, peak, len(closedWin), closedD.Seconds())
	res.infof("%s  latency_cal=%.4f", cal, res.e2e["latency_cal"])
	res.infof("runs: resident n=%d p50=%.3fms, miss n=%d p50=%.3fms, unkeyed n=%d p50=%.3fms; resident_hit_frac=%.4f",
		len(runs["resident"]), median(runs["resident"]), len(runs["miss"]), median(runs["miss"]),
		len(runs["unkeyed"]), median(runs["unkeyed"]), frac(hits, hits+misses))

	res.layer["serve.post_rtt_ms_p50"] = median(rtt)
	res.layer["serve.handler_us_p50"] = median(b.handlerUS.get())
	res.layer["serve.route_us_p50"] = median(b.routeUS.get())
	res.layer["serve.admit_us_p50"] = median(b.admitUS.get())
	res.layer["serve.queue_ms_p50"] = median(queue)
	res.layer["serve.queue_ms_p90"] = percentile(queue, 90)
	res.layer["serve.run_resident_ms_p50"] = median(runs["resident"])
	res.layer["serve.run_miss_ms_p50"] = median(runs["miss"])
	res.layer["serve.run_unkeyed_ms_p50"] = median(runs["unkeyed"])
	res.layer["serve.resident_hit_frac"] = frac(hits, hits+misses)
	res.layer["serve.gen_lag_ms_p99"] = percentile(lag, 99)
	if o.trace {
		res.overhead = median(latTraced)/median(latPlain) - 1
	}
	return res, nil
}
