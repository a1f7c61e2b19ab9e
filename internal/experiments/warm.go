package experiments

import (
	"fmt"
	"math/rand"

	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/obs"
	"flashfc/internal/sim"
	"flashfc/internal/trace"
	"flashfc/internal/workload"
)

// WarmState is a warmed-up validation machine, frozen pre-fault: the
// snapshot is immutable and every run forks its own machine from it, so one
// WarmState may serve any number of concurrent runs.
type WarmState struct {
	Cfg  ValidationConfig
	Snap *machine.Snapshot
	// FillLines is the effective warm-up fill per node (after defaulting).
	FillLines int
}

// WarmupValidation builds the §5.2 validation machine, runs the cache fill
// to completion, drains the engine to a quiescent point, and freezes it.
// The warm-up is seeded by warmSeed alone — derive it with WarmSeed(base),
// never from a run index — so every worker of a campaign reconstructs the
// identical snapshot. It panics if the fill cannot quiesce within
// cfg.Deadline (RunBatch turns that into failed runs via the runner's
// panic isolation).
//
// The warm-up machine is never traced, and the state drops cfg.Trace:
// with warm-start, a run's trace covers the forked portion only, in both
// warm-start modes.
func WarmupValidation(cfg ValidationConfig, warmSeed int64) *WarmState {
	cfg.Trace = nil
	mc := machine.DefaultConfig(cfg.Nodes)
	mc.Seed = warmSeed
	mc.MemBytes = cfg.MemBytes
	mc.L2Bytes = cfg.L2Bytes
	mc.Partitions = cfg.Partitions
	mc.RegionLinkExtra = cfg.RegionLinkExtra
	// The strategy is carried in the snapshot config so forks recover with
	// it; pristine tables are shared by every strategy, so the warm-up
	// itself is strategy-independent.
	mc.Routing = cfg.Routing
	m := machine.New(mc)
	filler := workload.NewFiller(m)
	if cfg.FillLines > 0 && cfg.FillLines < filler.FillLines {
		filler.FillLines = cfg.FillLines
	}
	done := false
	filler.Start(func() { done = true })
	// The fill's completion callback is not quiescence: evicted-line
	// writebacks are fire-and-forget, so drain until nothing is pending.
	for (!done || pendingEvents(m) > 0) && m.Now() < cfg.Deadline {
		m.Advance(m.Now() + sim.Millisecond)
	}
	if !done || pendingEvents(m) > 0 {
		panic(fmt.Sprintf("experiments: warm-up did not quiesce within %v (fill done=%v, %d events pending)",
			cfg.Deadline, done, pendingEvents(m)))
	}
	return &WarmState{Cfg: cfg, Snap: m.Snapshot(), FillLines: filler.FillLines}
}

// burstLines sizes the post-fork fill burst: BurstLines when set, else a
// quarter of the warm fill (minimum 8) — enough concurrent traffic for the
// fault to land mid-transaction, a fraction of the warm-up's cost.
func (ws *WarmState) burstLines() int {
	if ws.Cfg.BurstLines > 0 {
		return ws.Cfg.BurstLines
	}
	b := ws.FillLines / 4
	if b < 8 {
		b = 8
	}
	return b
}

// ValidationFromWarm performs one validation run by forking ws: a fresh
// machine rehydrated from the snapshot runs a runSeed-private fill burst,
// the fault (also drawn from a runSeed-private stream, so sibling forks
// place different faults) lands once half the burst has committed, and
// recovery plus the whole-memory sweep proceed as in Validation. The
// engine's own random stream is untouched by runSeed — it resumes exactly
// where the warm-up paused it, which is what makes a fork bit-identical to
// a fresh warm-up continued by the same script.
func ValidationFromWarm(ws *WarmState, ft fault.Type, runSeed int64, tr *trace.Tracer) *ValidationResult {
	cfg := ws.Cfg
	m := machine.FromSnapshot(ws.Snap, tr)
	rng := rand.New(rand.NewSource(runSeed))
	f := fault.Random(rng, ft, m.Topo, 1)
	res := &ValidationResult{Fault: f}
	defer func() {
		res.Events = eventsFired(m)
		res.Metrics = m.MetricsSnapshot()
	}()

	burst := workload.NewFillerSeeded(m, runSeed)
	burst.FillLines = ws.burstLines()
	injected := false
	burst.OnHalfDone = func() {
		injected = true
		m.Inject(f)
	}
	burstDone := false
	burst.Start(func() { burstDone = true })
	// The fork resumes at the warm-up's clock, so the deadline is relative.
	deadline := m.Now() + cfg.Deadline
	for !burstDone && m.Now() < deadline {
		m.Advance(m.Now() + sim.Millisecond)
	}
	if !injected {
		m.Inject(f)
	}
	reader := driveDetection(m, f)
	res.Recovered = m.RunUntilRecovered(deadline)
	if !res.Recovered {
		res.Note = fmt.Sprintf("recovery incomplete after %v", cfg.Deadline)
		return res
	}
	res.Phases = m.Aggregate()
	res.AffectedNodes = affectedNodes(m)
	res.Verify = m.VerifyMemory(reader, cfg.Stride)
	if !res.Verify.OK() {
		res.Note = res.Verify.String()
	}
	return res
}

// pendingEvents counts the events queued on m's engine, sequential or
// partitioned.
func pendingEvents(m *machine.Machine) int {
	if m.P != nil {
		return m.P.Pending()
	}
	return m.E.Pending()
}

// eventsFired is the number of events m's engine, sequential or
// partitioned, has fired.
func eventsFired(m *machine.Machine) uint64 {
	if m.P != nil {
		return m.P.EventsFired()
	}
	return m.E.EventsFired()
}

// forkedValidation is the warm-forked batch of one fault class's validation
// runs on seed stream stream+ft: every run forks the campaign's warm
// snapshot and runs ValidationFromWarm.
func forkedValidation(cfg ValidationConfig, label string, stream int, ft fault.Type, runs int) Batch[*ValidationResult] {
	return Batch[*ValidationResult]{
		Batch:  obs.Batch{Label: label, Fault: ft.String(), Runs: runs},
		Stream: stream + int(ft),
		Warmup: func(seed int64) any { return WarmupValidation(cfg, seed) },
		Run: func(_ int, ws any, seed int64) *ValidationResult {
			return ValidationFromWarm(ws.(*WarmState), ft, seed, nil)
		},
	}
}
