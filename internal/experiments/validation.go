// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation section (§5), plus the ablation
// measurements discussed in §4 and §6: Table 5.3 (validation runs),
// Table 5.4 (end-to-end Hive runs), Fig 5.5 (hardware recovery scaling),
// Fig 5.6 (coherence-recovery component scaling), Fig 5.7 (end-to-end
// suspension times), the §6.2 firewall cost, the §4.2 speculative-ping
// trigger speedup, and the §4.3 BFT-hint scheduling benefit.
package experiments

import (
	"fmt"

	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/metrics"
	"flashfc/internal/sim"
	"flashfc/internal/trace"
	"flashfc/internal/workload"
)

// ValidationResult is one Table 5.3 run.
type ValidationResult struct {
	Fault     fault.Fault
	Recovered bool
	Verify    *machine.VerifyResult
	Phases    machine.PhaseTimes
	Note      string
	// Events is the number of simulated events the run's engine fired;
	// campaigns aggregate it into events/sec throughput.
	Events uint64
	// AffectedNodes is how many nodes the fault cost the machine: the
	// nodes that did not emerge from recovery as healthy participants
	// (dead, isolated, or shut down with their failure unit). The tail
	// campaign reports it as a fraction of the machine.
	AffectedNodes int
	// Metrics is the run's machine-wide metric snapshot (always set, even
	// when recovery fails); campaigns merge and summarize them.
	Metrics *metrics.Snapshot
}

// OK reports whether the run counts as passed: recovery completed and the
// whole-memory sweep found data either intact or justifiably incoherent —
// and, for false alarms, no data loss at all (§4.1).
func (r *ValidationResult) OK() bool {
	if !r.Recovered || r.Verify == nil || !r.Verify.OK() {
		return false
	}
	switch r.Fault.Type {
	case fault.FalseAlarm, fault.FailSlow:
		// Nothing died and no link dropped traffic: recovery must not
		// have cost a single line. (A fail-slow engine still fields every
		// data-carrying message — slowly — so losses would be a bug.)
		if r.Verify.Incoherent != 0 {
			return false
		}
	}
	return true
}

// ValidationConfig shapes one validation run.
type ValidationConfig struct {
	Nodes     int
	MemBytes  uint64
	L2Bytes   uint64
	FillLines int // lines each node touches before the fault
	Deadline  sim.Time
	Stride    int // verification stride (1 = full sweep)
	// Partitions, when > 0, runs the machine — and a warm-forked batch's
	// warm state — on the partitioned engine with that many intra-machine
	// workers. Fault injection forces the deterministic global interleave,
	// so results are bit-identical at any Partitions ≥ 1. Partitions 0 is
	// a different machine: the sequential engine without the partitioned
	// fabric's longer inter-region links.
	Partitions int
	// RegionLinkExtra overrides the extra inter-region wire latency of a
	// partitioned machine; 0 uses machine.DefaultRegionLinkExtra.
	RegionLinkExtra sim.Time
	// Routing names the interconnect-recovery routing strategy the runs
	// use ("" or "paper" is the paper's policy on the byte-identical
	// pre-strategy path; see internal/routing).
	Routing string
	// BurstLines sizes the post-fork fill burst of warm-start runs; 0
	// defaults to a quarter of the warm fill (minimum 8).
	BurstLines int
	// Trace, when non-nil, collects the run's event timeline. It applies
	// to single Validation runs only: batches ignore it — the tracer
	// itself is safe to share across goroutines, but interleaving many
	// runs' simulated timelines into one trace produces nonsense.
	Trace *trace.Tracer
}

// DefaultValidationConfig returns a fast-but-faithful §5.2 setup: the
// Table 5.1 8-node machine with reduced fill and memory so that a batch of
// 1000 runs is tractable.
func DefaultValidationConfig() ValidationConfig {
	return ValidationConfig{
		Nodes:     8,
		MemBytes:  256 << 10,
		L2Bytes:   64 << 10,
		FillLines: 192,
		Deadline:  5 * sim.Second,
		Stride:    1,
	}
}

// Validation performs one §5.2 validation run: fill the caches with random
// lines (shared/exclusive at random), inject the fault once half the fill
// has committed (so transactions are in flight), run recovery, then read
// back the entire memory and compare against the oracle.
func Validation(cfg ValidationConfig, ft fault.Type, seed int64) *ValidationResult {
	mc := machine.DefaultConfig(cfg.Nodes)
	mc.Seed = seed
	mc.MemBytes = cfg.MemBytes
	mc.L2Bytes = cfg.L2Bytes
	mc.Trace = cfg.Trace
	mc.Partitions = cfg.Partitions
	mc.RegionLinkExtra = cfg.RegionLinkExtra
	mc.Routing = cfg.Routing
	m := machine.New(mc)
	f := fault.Random(m.E.Rand(), ft, m.Topo, 1)
	res := &ValidationResult{Fault: f}
	defer func() {
		res.Events = eventsFired(m)
		res.Metrics = m.MetricsSnapshot()
	}()

	filler := workload.NewFiller(m)
	if cfg.FillLines > 0 && cfg.FillLines < filler.FillLines {
		filler.FillLines = cfg.FillLines
	}
	injected := false
	filler.OnHalfDone = func() {
		injected = true
		m.Inject(f)
	}
	fillDone := false
	filler.Start(func() { fillDone = true })
	// Drive the fill; the fault lands mid-fill, and the fill operations
	// double as the detection traffic for quiet faults.
	for !fillDone && m.Now() < cfg.Deadline {
		m.Advance(m.Now() + sim.Millisecond)
	}
	if !injected {
		// Degenerate fill (everything completed in one batch): inject
		// now and provoke detection with one remote read.
		m.Inject(f)
	}
	reader := driveDetection(m, f)
	res.Recovered = m.RunUntilRecovered(cfg.Deadline)
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

// detectionVictim picks an address whose access will notice the fault.
func detectionVictim(m *machine.Machine, f fault.Fault) int {
	switch f.Type {
	case fault.NodeFailure, fault.InfiniteLoop, fault.FailSlow, fault.CPUFail:
		return f.Node
	case fault.RouterFailure:
		return f.Router
	case fault.LinkFailure, fault.TransientLink:
		// Touch the memory of the link's far end.
		return m.Topo.Links()[f.Link].B
	default:
		return m.Cfg.Nodes - 1
	}
}

// driveDetection submits the detection read from the lowest-id survivor.
// Node 0 is the usual driver, but de-skewed victim selection means router 0
// (and with it node 0) can be the casualty, so the kicker must be chosen
// from ground truth.
func driveDetection(m *machine.Machine, f fault.Fault) int {
	s := m.Survivors()
	if len(s) == 0 {
		return -1
	}
	m.Nodes[s[0]].CPU.Submit(workload.TouchOp(m, detectionVictim(m, f)))
	return s[0]
}

// affectedNodes counts the nodes the fault cost the machine once recovery
// completed: everything that did not report back healthy.
func affectedNodes(m *machine.Machine) int {
	healthy := 0
	for _, r := range m.Reports() {
		if !r.ShutDown && !r.Isolated {
			healthy++
		}
	}
	return m.Cfg.Nodes - healthy
}

// Table53Row aggregates a batch of validation runs for one fault type.
type Table53Row struct {
	Fault  fault.Type
	Runs   int
	Failed int
	// Metrics is the fault type's batch aggregate: the per-run snapshots
	// of every non-crashed run, merged in run order.
	Metrics *metrics.Snapshot
}

// Batches of validation runs go through RunBatch: the flashfc Campaign
// API's ValidationCampaign for Table 5.3, TailCampaign for the tail.
