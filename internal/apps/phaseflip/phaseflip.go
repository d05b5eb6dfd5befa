// Package phaseflip is a synthetic two-phase workload whose optimal
// stealing policy flips mid-run — the stress case for the adaptive
// affinity controller (Config.Adapt).
//
// Phase A runs a few serial object-bound chains, one per cluster-0
// server: each link spawns its successor at the START of its body, so
// the successor sits queued behind its running predecessor as the
// server's only queued task. A single queued object-bound task is
// refused by the paper's reluctant-stealing rule, so the chains are
// pure probe bait: under flat (cross-cluster) stealing every chain
// enqueue wakes idle processors machine-wide, and each woken thief is
// charged a failed remote-steal probe per chain server. Alongside the
// chains, the remaining processors run serial ping-pong pairs — each
// pair bounces one object-bound task between two neighbouring servers,
// so one side is always briefly idle waiting for the bounce. Under
// flat stealing that idle side is exactly who the chain wakes reach
// (lowest IDs first), so when its own link arrives the processor is
// still mid-probe-burst with its clock pushed ahead, and the link
// starts late. The slip accrues every bounce and the phase barrier
// waits for the pairs, so flat stealing stretches phase A's makespan.
// Cluster-restricted stealing confines woken processors to their own
// (empty or cheap-to-probe) cluster, so the pairs run clean and
// cluster-only wins phase A.
//
// Phase B floods the cluster-0 servers with a deep backlog of
// object-bound tasks. Backlogged object-bound work IS reluctantly
// stealable, so flat stealing spreads it across the whole machine,
// while cluster-only strands every worker outside cluster 0 — flat
// wins phase B by roughly the cluster count. No static policy wins
// both phases; a controller that flips cluster-only on during A (high
// failed-steal ratio) and off during B (starvation: deep backlog with
// most workers parked) beats either static.
package phaseflip

import (
	"fmt"

	cool "github.com/coolrts/cool"
)

// Variant selects the affinity ablation.
type Variant int

const (
	// Base: hints ignored — tasks placed round-robin, no phase contrast.
	Base Variant = iota
	// Phases: the object-affinity version whose two phases want
	// opposite stealing policies.
	Phases
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Base:
		return "Base"
	case Phases:
		return "Phases"
	}
	return "unknown"
}

// Variants lists the ablation points in order.
var Variants = []Variant{Base, Phases}

// Work per task body, in simulated cycles. A chain step and a
// ping-pong link are the same length; each pair bounces Steps times,
// so the pairs outlast the chains and carry the accumulated slip into
// the phase barrier. A wave task is long enough that a one-time
// successful steal amortizes.
const (
	chainWork = 400
	pingWork  = 400
	waveWork  = 1000
)

// Phase A's fixed shapes: chains fill one DASH cluster's servers, and
// the ping-pong pairs cover the other twelve processors of the
// reference 16-processor machine. Both are independent of the actual
// processor count (placements wrap), so the work — and the checksum —
// is identical across machine sizes and against the serial reference.
const (
	chainCount = 4
	pairCount  = 6
)

// Params sizes the workload. No knob depends on the processor count.
type Params struct {
	Steps  int // phase A: links per chain (each pair bounces Steps times)
	Wave   int // phase B: total backlogged tasks
	Rounds int // A/B pairs, so the policy must flip repeatedly
}

// DefaultParams returns the standard workload.
func DefaultParams() Params { return Params{Steps: 600, Wave: 768, Rounds: 2} }

func (p Params) normalize() Params {
	d := DefaultParams()
	if p.Steps <= 0 {
		p.Steps = d.Steps
	}
	if p.Wave <= 0 {
		p.Wave = p.Steps
		if p.Wave < 8 {
			p.Wave = 8
		}
	}
	if p.Rounds <= 0 {
		p.Rounds = d.Rounds
	}
	return p
}

// turns is how many times each ping-pong pair bounces per round.
func (p Params) turns() int {
	t := p.Steps
	if t < 1 {
		t = 1
	}
	return t
}

// Result carries timing and correctness evidence.
type Result struct {
	Cycles   int64
	Report   cool.Report
	Checksum float64
	Tasks    int64
}

type app struct {
	prm  Params
	objs []*cool.I64 // one accumulator cell per chain, homed on its server
	pong []*cool.F64 // two cells per pair (flat: pair*2+side), each homed on its side
	wave *cool.F64   // one cell per wave task, disjoint writes
}

// build allocates the chain accumulators (one per cluster-0 server),
// the ping-pong cells (pair p bounces between processors 4+2p and
// 5+2p), and the wave buffer. All placements wrap modulo the machine
// size, so on smaller machines the shapes share servers while the
// data writes — and so the checksum — stay identical.
func build(rt *cool.Runtime, prm Params) *app {
	ap := &app{prm: prm}
	ap.objs = make([]*cool.I64, chainCount)
	for c := range ap.objs {
		ap.objs[c] = rt.NewI64Pages(1, c%rt.Processors())
	}
	ap.pong = make([]*cool.F64, 2*pairCount)
	for i := range ap.pong {
		ap.pong[i] = rt.NewF64Pages(1, (chainCount+i)%rt.Processors())
	}
	ap.wave = rt.NewF64Pages(prm.Wave, 0)
	return ap
}

// chainStep is one phase-A link: spawn the successor first (it parks
// as the server's lone queued task for this whole body), then work.
// On the native backend the successor can run while this link still
// updates the chain cell, so the cell is an integer updated with an
// atomic add: the sum is the same in any order.
func (ap *app) chainStep(ctx *cool.Ctx, v Variant, c, step, round int) {
	if step+1 < ap.prm.Steps {
		ap.spawnLink(ctx, v, c, step+1, round)
	}
	cell := ap.objs[c]
	ctx.Access(cell.Addr(0), 8, true)
	ctx.AddI64(cell, 0, int64((step*31+c*17+round)%13)-6)
	ctx.Compute(chainWork)
}

func (ap *app) spawnLink(ctx *cool.Ctx, v Variant, c, step, round int) {
	body := func(cc *cool.Ctx) { ap.chainStep(cc, v, c, step, round) }
	if v == Phases {
		ctx.Spawn("chain", body, cool.ObjectAffinity(ap.objs[c].Base))
		return
	}
	ctx.Spawn("chain", body)
}

// pingStep is one ping-pong bounce: work against this side's cell,
// then spawn the next bounce on the partner side at the END of the
// body, so the partner's server sits empty — and its processor idle,
// soaking up chain wakes — for the whole duration of this link.
func (ap *app) pingStep(ctx *cool.Ctx, v Variant, pair, turn, round int) {
	d := ctx.WriteF64Range(ap.pong[pair*2+turn%2], 0, 1)
	d[0] += float64((turn*19+pair*7+round)%17) - 8
	ctx.Compute(pingWork)
	if turn+1 < ap.prm.turns() {
		ap.spawnBounce(ctx, v, pair, turn+1, round)
	}
}

func (ap *app) spawnBounce(ctx *cool.Ctx, v Variant, pair, turn, round int) {
	body := func(cc *cool.Ctx) { ap.pingStep(cc, v, pair, turn, round) }
	if v == Phases {
		ctx.Spawn("ping", body, cool.ObjectAffinity(ap.pong[pair*2+turn%2].Base))
		return
	}
	ctx.Spawn("ping", body)
}

// waveTask is one phase-B body: a disjoint write plus work.
func (ap *app) waveTask(ctx *cool.Ctx, i, round int) {
	d := ctx.WriteF64Range(ap.wave, i, i+1)
	d[0] += float64((i*7+round*3)%11) - 5
	ctx.Compute(waveWork)
}

// run alternates the two phases. Each phase is a barrier: the policy
// signal the controller sees is pure (all-A, then all-B).
func (ap *app) run(ctx *cool.Ctx, v Variant) {
	n := ap.prm.Wave
	optBuf := make([]cool.SpawnOpt, 1)
	for round := 0; round < ap.prm.Rounds; round++ {
		round := round
		// Phase A: one chain head per cluster-0 server, plus the
		// ping-pong pairs on the rest of the machine.
		ctx.WaitFor(func() {
			for c := 0; c < chainCount; c++ {
				ap.spawnLink(ctx, v, c, 0, round)
			}
			for pair := 0; pair < pairCount; pair++ {
				ap.spawnBounce(ctx, v, pair, 0, round)
			}
		})
		// Phase B: a deep object-bound backlog on the chain servers.
		ctx.WaitFor(func() {
			ctx.SpawnN("wave", n, func(cc *cool.Ctx, i int) {
				ap.waveTask(cc, i, round)
			}, func(i int) []cool.SpawnOpt {
				if v != Phases {
					return nil
				}
				optBuf[0] = cool.ObjectAffinity(ap.objs[i%chainCount].Base)
				return optBuf[:1]
			})
		})
	}
}

func (ap *app) checksum() float64 {
	var s float64
	for c, o := range ap.objs {
		s += float64(o.Data[0]) * float64(c+1)
	}
	for i, o := range ap.pong {
		s += o.Data[0] * float64(i%5+2)
	}
	for i, v := range ap.wave.Data {
		s += v * float64(i%23+1)
	}
	return s
}

// validate checks every chain cell against the closed-form sum of its
// links' deltas: a lost or doubled update shows up here.
func (ap *app) validate() error {
	for c, o := range ap.objs {
		var want int64
		for round := 0; round < ap.prm.Rounds; round++ {
			for step := 0; step < ap.prm.Steps; step++ {
				want += int64((step*31+c*17+round)%13) - 6
			}
		}
		if o.Data[0] != want {
			return fmt.Errorf("phaseflip: chain accumulator %d = %d, want %d", c, o.Data[0], want)
		}
	}
	return nil
}

// Run executes the workload under the given variant.
func Run(procs int, v Variant, prm Params) (Result, error) {
	return RunWith(cool.Config{Processors: procs}, v, prm)
}

// RunWith executes the workload under an explicit base configuration;
// the variant's scheduling knobs are applied on top.
func RunWith(cfg cool.Config, v Variant, prm Params) (Result, error) {
	if v == Base {
		cfg.Sched.IgnoreHints = true
	}
	rt, err := cool.NewRuntime(cfg)
	if err != nil {
		return Result{}, err
	}
	return RunOn(rt, v, prm)
}

// RunOn executes the workload on an existing runtime that has not run
// yet. Base still runs without locality here: its spawns carry no
// affinity options.
func RunOn(rt *cool.Runtime, v Variant, prm Params) (Result, error) {
	prm = prm.normalize()
	ap := build(rt, prm)
	if err := rt.Run(func(ctx *cool.Ctx) { ap.run(ctx, v) }); err != nil {
		return Result{}, fmt.Errorf("phaseflip %v: %w", v, err)
	}
	if err := ap.validate(); err != nil {
		return Result{}, err
	}
	return Result{
		Cycles:   rt.ElapsedCycles(),
		Report:   rt.Report(),
		Checksum: ap.checksum(),
		Tasks:    rt.Report().Total.TasksRun,
	}, nil
}

// RunSerial performs the identical work in the main task.
func RunSerial(prm Params) (Result, error) {
	prm = prm.normalize()
	rt, err := cool.NewRuntime(cool.Config{Processors: 1})
	if err != nil {
		return Result{}, err
	}
	ap := build(rt, prm)
	err = rt.Run(func(ctx *cool.Ctx) {
		for round := 0; round < prm.Rounds; round++ {
			for c := 0; c < chainCount; c++ {
				for step := 0; step < prm.Steps; step++ {
					cell := ap.objs[c]
					ctx.Access(cell.Addr(0), 8, true)
					ctx.AddI64(cell, 0, int64((step*31+c*17+round)%13)-6)
					ctx.Compute(chainWork)
				}
			}
			for pair := 0; pair < pairCount; pair++ {
				for turn := 0; turn < prm.turns(); turn++ {
					d := ctx.WriteF64Range(ap.pong[pair*2+turn%2], 0, 1)
					d[0] += float64((turn*19+pair*7+round)%17) - 8
					ctx.Compute(pingWork)
				}
			}
			for i := 0; i < prm.Wave; i++ {
				ap.waveTask(ctx, i, round)
			}
		}
	})
	if err != nil {
		return Result{}, fmt.Errorf("phaseflip serial: %w", err)
	}
	return Result{
		Cycles:   rt.ElapsedCycles(),
		Report:   rt.Report(),
		Checksum: ap.checksum(),
	}, nil
}
