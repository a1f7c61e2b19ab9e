package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"flashfc"
	"flashfc/internal/fault"
	wl "flashfc/internal/workload"
)

// A workload is one named input family. Its untraced rounds run through
// the flashfc campaign API; its traced pass replays the same runs step by
// step from the public calls each round makes internally.
type workload struct {
	name string
	// setupReps is how many set-up passes feed the setup_s median.
	setupReps int
	// setUp performs one set-up pass: what a user does before the first
	// timed run.
	setUp func(seed int64)
	// round runs the workload's batch of distinct runs once, untraced.
	// Every round repeats the same batch, so the simulated counts of a seed
	// are exact and each repeat checks determinism.
	round func(seed int64) roundResult
	// prepare does the traced pass's own set-up on c and returns the
	// step-by-step replay of run i.
	prepare func(seed int64, c *clock) func(i int) (simCounts, string)
}

var workloads = []workload{validate16(), scale128(), fill1024()}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOutcome is one untraced run: its host wall time, what it simulated,
// and why it failed its output check ("" when it passed).
type runOutcome struct {
	wall time.Duration
	sim  simCounts
	note string
}

// roundResult is one campaign over the batch.
type roundResult struct {
	runs []runOutcome
	// wall is the campaign's run phase: its wall time minus warm-up.
	wall time.Duration
}

// campaignRound runs exp for `runs` runs on one campaign worker, warm-start
// on, and checks every run's output.
func campaignRound[T any](seed int64, runs int, exp flashfc.Experiment[T], check func(T) (simCounts, string)) roundResult {
	out := flashfc.RunCampaign(flashfc.CampaignConfig{
		Seed: seed, Runs: runs, Workers: 1, WarmStart: flashfc.WarmStartOn,
	}, exp)
	r := roundResult{wall: out.Stats.Wall - out.Stats.SetupWall}
	for i, run := range out.Runs {
		o := runOutcome{wall: run.Wall}
		if i == 0 {
			// The runner builds the worker's warm state lazily, inside
			// the first run's timing.
			o.wall -= out.Stats.Setup
		}
		if run.Err != nil {
			o.note = run.Err.Error()
		} else {
			o.sim, o.note = check(run.Value)
		}
		r.runs = append(r.runs, o)
	}
	return r
}

// --- validate16 ------------------------------------------------------------

// faultClasses are the eight injectable classes validate16 cycles through.
var faultClasses = append(flashfc.AllFaultTypes(), flashfc.ExtendedFaultTypes()...)

// roundRobin is the §5.2 validation contract cycled over every fault
// class: run i is ValidationCampaign run i of class i mod 8, all forked
// from one warm snapshot.
type roundRobin struct{ cfg flashfc.ValidationConfig }

func (c roundRobin) campaign(i int) flashfc.ValidationCampaign {
	return flashfc.ValidationCampaign{Config: c.cfg, Fault: faultClasses[i%len(faultClasses)]}
}
func (c roundRobin) Stream() int { return c.campaign(0).Stream() }
func (c roundRobin) Points() int { return 0 }
func (c roundRobin) Run(env flashfc.RunEnv, i int, seed int64) *flashfc.ValidationResult {
	return c.campaign(i).Run(env, i, seed)
}
func (c roundRobin) Warmup(cfg flashfc.CampaignConfig) any { return c.campaign(0).Warmup(cfg) }
func (c roundRobin) RunWarm(env flashfc.RunEnv, ws any, i int, seed int64) *flashfc.ValidationResult {
	return c.campaign(i).RunWarm(env, ws, i, seed)
}

func validate16() workload {
	cfg := flashfc.DefaultValidationConfig()
	cfg.Nodes = 16
	exp := roundRobin{cfg: cfg}
	const batch = 24 // three runs of each class
	warmSeed := func(seed int64) int64 { return flashfc.DeriveSeed(seed, flashfc.StreamWarmup, 0) }
	return workload{
		name:      "validate16",
		setupReps: 15,
		setUp:     func(seed int64) { flashfc.WarmupValidation(cfg, warmSeed(seed)) },
		round:     func(seed int64) roundResult { return campaignRound(seed, batch, exp, checkValidation) },
		prepare: func(seed int64, c *clock) func(int) (simCounts, string) {
			c.enter(phWarmup)
			ws := flashfc.WarmupValidation(cfg, warmSeed(seed))
			c.stop()
			return func(i int) (simCounts, string) {
				return traceValidation(ws, exp.campaign(i).Fault, flashfc.DeriveSeed(seed, exp.Stream(), i), c)
			}
		},
	}
}

func checkValidation(v *flashfc.ValidationResult) (simCounts, string) {
	c := countsOf(v.Events, v.Phases.Total, v.Verify, v.Metrics)
	if v.OK() {
		return c, ""
	}
	if v.Note != "" {
		return c, v.Fault.String() + ": " + v.Note
	}
	return c, fmt.Sprintf("%v: readback contract failed: %v", v.Fault, v.Verify)
}

// traceValidation replays ValidationFromWarm: fork, seeded burst with the
// fault injected at half-burst, detection read, recovery, readback.
func traceValidation(ws *flashfc.WarmState, ft flashfc.FaultType, runSeed int64, c *clock) (simCounts, string) {
	cfg := ws.Cfg
	c.enter(phFork)
	m := flashfc.MachineFromSnapshot(ws.Snap, nil)
	c.enter(phPrefault)
	f := fault.Random(rand.New(rand.NewSource(runSeed)), ft, m.Topo, 1)
	res := &flashfc.ValidationResult{Fault: f}

	burst := wl.NewFillerSeeded(m, runSeed)
	burst.FillLines = burstLines(ws)
	injected := false
	burst.OnHalfDone = func() {
		injected = true
		c.enter(phRecovery)
		m.Inject(f)
	}
	burstDone := false
	burst.Start(func() { burstDone = true })
	deadline := m.Now() + cfg.Deadline
	for !burstDone && m.Now() < deadline {
		m.Advance(m.Now() + flashfc.Millisecond)
		c.recovered(m)
	}
	if !injected {
		c.enter(phRecovery)
		m.Inject(f)
	}
	reader := driveDetection(m, f)
	res.Recovered = recoverPolled(m, deadline, c)
	if res.Recovered {
		res.Phases = m.Aggregate()
		c.enter(phVerify)
		res.Verify = m.VerifyMemory(reader, cfg.Stride)
	}
	c.stop()
	res.Events = m.E.EventsFired()
	res.Metrics = m.MetricsSnapshot()
	return checkValidation(res)
}

// burstLines is the post-fork burst size ValidationFromWarm uses: the
// configured BurstLines, else a quarter of the warm fill, at least 8.
func burstLines(ws *flashfc.WarmState) int {
	if ws.Cfg.BurstLines > 0 {
		return ws.Cfg.BurstLines
	}
	return max(ws.FillLines/4, 8)
}

// driveDetection submits ValidationFromWarm's detection read: from the
// lowest-id survivor to a node whose access notices the fault. It returns
// the reader, which also performs the readback.
func driveDetection(m *flashfc.Machine, f flashfc.Fault) int {
	s := m.Survivors()
	if len(s) == 0 {
		return -1
	}
	target := m.Cfg.Nodes - 1
	switch f.Type {
	case flashfc.NodeFailure, flashfc.InfiniteLoop, flashfc.FailSlow, flashfc.CPUFail:
		target = f.Node
	case flashfc.RouterFailure:
		target = f.Router
	case flashfc.LinkFailure, flashfc.TransientLink:
		target = m.Topo.Links()[f.Link].B
	}
	m.Nodes[s[0]].CPU.Submit(flashfc.TouchOp(m, target))
	return s[0]
}

// recoverPolled is Machine.RunUntilRecovered, moving the clock to settle
// at the first step boundary where recovery is complete.
func recoverPolled(m *flashfc.Machine, deadline flashfc.Time, c *clock) bool {
	for !m.Recovered() && m.Now() < deadline {
		m.Advance(min(m.Now()+flashfc.Millisecond, deadline))
	}
	c.recovered(m)
	return m.Recovered()
}

// --- scale128 --------------------------------------------------------------

func scale128() workload {
	exp := flashfc.DistributionCampaign{Config: flashfc.DefaultScalingConfig(128)}
	const batch = 8
	return workload{
		name:      "scale128",
		setupReps: 3,
		setUp:     func(seed int64) { campaignRound(seed, 1, exp, checkScaling) },
		round:     func(seed int64) roundResult { return campaignRound(seed, batch, exp, checkScaling) },
		prepare: func(seed int64, c *clock) func(int) (simCounts, string) {
			return func(i int) (simCounts, string) {
				return traceScaling(exp.Config, flashfc.DeriveSeed(seed, exp.Stream(), i), c)
			}
		},
	}
}

func checkScaling(p flashfc.ScalingPoint) (simCounts, string) {
	c := countsOf(p.Events, p.Phases.Total, nil, p.Metrics)
	if !p.OK {
		return c, "recovery incomplete"
	}
	return c, ""
}

// traceScaling replays a DistributionCampaign run of MeasureRecovery: the
// victim comes from the run seed, the fault lands at half-fill.
func traceScaling(cfg flashfc.ScalingConfig, seed int64, c *clock) (simCounts, string) {
	victim := 1 + int(uint64(seed)%uint64(cfg.Nodes-1))
	c.enter(phBuild)
	mc := flashfc.DefaultMachineConfig(cfg.Nodes)
	mc.Topo = cfg.Topo
	mc.Seed = seed
	mc.MemBytes = cfg.MemBytes
	mc.L2Bytes = cfg.L2Bytes
	mc.Routing = cfg.Routing
	m := flashfc.NewMachine(mc)
	c.enter(phPrefault)
	f := flashfc.Fault{Type: flashfc.NodeFailure, Node: victim}
	filler := wl.NewFiller(m)
	if cfg.FillLines > 0 && cfg.FillLines < filler.FillLines {
		filler.FillLines = cfg.FillLines
	}
	filler.OnHalfDone = func() {
		c.enter(phRecovery)
		m.Inject(f)
	}
	filler.Start(func() {})
	m.Nodes[0].CPU.Submit(flashfc.TouchOp(m, victim))
	p := flashfc.ScalingPoint{OK: recoverPolled(m, cfg.Deadline, c)}
	p.Phases = m.Aggregate()
	c.stop()
	p.Events = m.E.EventsFired()
	p.Metrics = m.MetricsSnapshot()
	return checkScaling(p)
}

// --- fill1024 --------------------------------------------------------------

// fillStream is the seed stream of fill1024's runs.
const fillStream = 1024

// fillCampaign is the fault-free partitioned fill as a campaign experiment.
type fillCampaign struct{ cfg flashfc.PartitionConfig }

func (fillCampaign) Stream() int { return fillStream }
func (fillCampaign) Points() int { return 0 }
func (c fillCampaign) Run(_ flashfc.RunEnv, _ int, seed int64) *flashfc.PartitionResult {
	return flashfc.RunPartitionFill(c.cfg, seed)
}

func fill1024() workload {
	cfg := flashfc.DefaultPartitionConfig()
	cfg.Partitions = min(2, runtime.NumCPU())
	exp := fillCampaign{cfg: cfg}
	const batch = 8
	return workload{
		name:      "fill1024",
		setupReps: 3,
		setUp:     func(seed int64) { campaignRound(seed, 1, exp, checkFill) },
		round:     func(seed int64) roundResult { return campaignRound(seed, batch, exp, checkFill) },
		prepare: func(seed int64, c *clock) func(int) (simCounts, string) {
			return func(i int) (simCounts, string) {
				return traceFill(cfg, flashfc.DeriveSeed(seed, fillStream, i), c)
			}
		},
	}
}

func checkFill(r *flashfc.PartitionResult) (simCounts, string) {
	c := countsOf(r.Events, 0, nil, r.Metrics)
	if !r.OK() {
		return c, fmt.Sprintf("fill incomplete: %d of %d accesses", r.Completed, r.Total)
	}
	return c, ""
}

// traceFill replays RunPartitionFill: build the partitioned machine, then
// step the fill to completion in 1 ms windows.
func traceFill(cfg flashfc.PartitionConfig, seed int64, c *clock) (simCounts, string) {
	c.enter(phBuild)
	mc := flashfc.DefaultMachineConfig(cfg.Nodes)
	mc.Seed = seed
	mc.MemBytes = cfg.MemBytes
	mc.L2Bytes = cfg.L2Bytes
	mc.Partitions = cfg.Partitions
	mc.RegionLinkExtra = cfg.RegionLinkExtra
	mc.ParallelWindows = true
	m := flashfc.NewMachine(mc)
	c.enter(phFill)
	pf := wl.NewPartitionFill(m)
	if cfg.OpsPerNode > 0 {
		pf.OpsPerNode = cfg.OpsPerNode
	}
	pf.Start()
	for !pf.Done() && m.Now() < cfg.Deadline {
		m.Advance(m.Now() + flashfc.Millisecond)
	}
	c.stop()
	r := &flashfc.PartitionResult{Completed: pf.Total() - pf.Remaining(), Total: pf.Total()}
	r.Events = m.E.EventsFired()
	if m.P != nil {
		r.Events = m.P.EventsFired()
	}
	r.Metrics = m.MetricsSnapshot()
	return checkFill(r)
}
