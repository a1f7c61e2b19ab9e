package experiments

import (
	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/metrics"
	"flashfc/internal/sim"
	"flashfc/internal/workload"
)

// Fig 5.5 / Fig 5.6 drivers: hardware recovery time scaling.

// ScalingConfig shapes one recovery-time measurement.
type ScalingConfig struct {
	Nodes    int
	Topo     machine.TopoKind
	MemBytes uint64 // per-node memory (drives the P4 directory sweep)
	L2Bytes  uint64 // L2 size (drives the P4 flush)
	// FillLines bounds the workload's cache fill; the P4 charges use the
	// configured sizes regardless, as in Fig 5.6's no-contention model.
	FillLines int
	Seed      int64
	Deadline  sim.Time
	// Routing names the recovery routing strategy ("" or "paper" keeps the
	// byte-identical pre-strategy pipeline).
	Routing string
	// Victim selects the node to kill; -1 picks the middle of the mesh.
	Victim int
	// Knobs for the ablation studies.
	SpeculativePing *bool
	BFTHints        *bool
}

// DefaultScalingConfig is the Fig 5.5 configuration: mesh, 1 MB memory per
// node, 1 MB L2, a node failure.
func DefaultScalingConfig(nodes int) ScalingConfig {
	return ScalingConfig{
		Nodes:     nodes,
		Topo:      machine.TopoMesh,
		MemBytes:  1 << 20,
		L2Bytes:   1 << 20,
		FillLines: 128,
		Seed:      1,
		Victim:    -1,
		Deadline:  20 * sim.Second,
	}
}

// ScalingPoint is one measured configuration.
type ScalingPoint struct {
	// Nodes is the machine size the point was measured on.
	Nodes int
	// X is the point's x-coordinate in the sweep that produced it: the
	// node count for Fig55, the swept size in MB for Fig56L2/Fig56Mem.
	// (Fig56 previously abused Nodes for this, which truncated sub-MB
	// cache sizes to 0.)
	X      float64
	Phases machine.PhaseTimes
	OK     bool
	// Events is the number of simulated events the run's engine fired.
	Events uint64
	// Metrics is the run's machine-wide metric snapshot; sweeps merge the
	// points' snapshots into a campaign aggregate.
	Metrics *metrics.Snapshot
}

// MeasureRecovery builds the machine, fills caches lightly, injects a node
// failure, and returns the aggregated per-phase recovery times.
func MeasureRecovery(cfg ScalingConfig) ScalingPoint {
	mc := machine.DefaultConfig(cfg.Nodes)
	mc.Topo = cfg.Topo
	mc.Seed = cfg.Seed
	mc.MemBytes = cfg.MemBytes
	mc.L2Bytes = cfg.L2Bytes
	mc.Routing = cfg.Routing
	if cfg.SpeculativePing != nil {
		mc.Recovery.SpeculativePing = *cfg.SpeculativePing
	}
	if cfg.BFTHints != nil {
		mc.Recovery.BFTHints = *cfg.BFTHints
	}
	m := machine.New(mc)
	victim := cfg.Victim
	if victim < 0 || victim >= cfg.Nodes {
		victim = cfg.Nodes / 2
	}
	if victim == 0 {
		victim = cfg.Nodes - 1
	}
	f := fault.Fault{Type: fault.NodeFailure, Node: victim}

	filler := workload.NewFiller(m)
	if cfg.FillLines > 0 && cfg.FillLines < filler.FillLines {
		filler.FillLines = cfg.FillLines
	}
	filler.OnHalfDone = func() { m.Inject(f) }
	filler.Start(func() {})
	m.Nodes[0].CPU.Submit(workload.TouchOp(m, victim))
	ok := m.RunUntilRecovered(cfg.Deadline)
	return ScalingPoint{
		Nodes:   cfg.Nodes,
		X:       float64(cfg.Nodes),
		Phases:  m.Aggregate(),
		OK:      ok,
		Events:  m.E.EventsFired(),
		Metrics: m.MetricsSnapshot(),
	}
}

// The figure sweeps live in the flashfc Campaign API (Fig55Campaign,
// Fig56L2Campaign, Fig56MemCampaign); the pre-campaign wrappers (Fig55,
// Fig56L2, Fig56Mem) are gone — drive MeasureRecovery over the sweep
// coordinates instead.

// TriggerLatency measures the §4.2 recovery-triggering latency: the time
// from fault injection until the last functioning node has dropped into
// recovery, with or without speculative pings (the paper reports the
// optimization speeds up triggering about fivefold).
func TriggerLatency(nodes int, speculative bool, seed int64) sim.Time {
	mc := machine.DefaultConfig(nodes)
	mc.Seed = seed
	mc.MemBytes = 64 << 10
	mc.L2Bytes = 16 << 10
	mc.Recovery.SpeculativePing = speculative
	var m *machine.Machine
	var lastEnter sim.Time
	mc.Recovery.OnEnter = func(id int) { lastEnter = m.E.Now() }
	m = machine.New(mc)
	victim := nodes / 2
	var injectAt sim.Time
	m.E.At(10*sim.Microsecond, func() {
		injectAt = m.E.Now()
		m.Inject(fault.Fault{Type: fault.NodeFailure, Node: victim})
		m.Nodes[0].CPU.Submit(workload.TouchOp(m, victim))
	})
	m.RunUntilRecovered(10 * sim.Second)
	return lastEnter - injectAt
}
