package experiments

import (
	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/metrics"
	"flashfc/internal/obs"
	"flashfc/internal/runner"
)

// Test-local stand-ins for the removed pre-campaign batch wrappers
// (ValidationBatch, Table53, Fig55, Fig56L2, Fig56Mem, Fig57,
// RecoveryDistribution): each is a RunBatch over the per-run function the
// flashfc Campaign API runs, with the same seed streams and aggregation, so
// the determinism, metrics and scaling assertions keep pinning the same
// computations through the one batch path.

// noCrash disables crashAt in the helpers below.
const noCrash = -1

// crashAt makes run k of b panic the way a driver bug would; k < 0 leaves
// b unchanged.
func crashAt[T any](b Batch[T], k int) Batch[T] {
	if k < 0 {
		return b
	}
	run := b.Run
	b.Run = func(i int, ws any, seed int64) T {
		if i == k {
			panic("injected driver crash")
		}
		return run(i, ws, seed)
	}
	return b
}

// validationBatch is the warm-forked Table 5.3 batch of one fault class:
// the seeds and warm state of the flashfc ValidationCampaign.
func validationBatch(cfg ValidationConfig, ft fault.Type, runs int) Batch[*ValidationResult] {
	return forkedValidation(cfg, "validation", runner.StreamValidation, ft, runs)
}

// table53 runs cc.Runs validation runs of every Table 5.2 fault class, run
// crash of each batch panicking (noCrash for none).
func table53(cc CampaignConfig, cfg ValidationConfig, crash int) ([]Table53Row, runner.Stats) {
	var rows []Table53Row
	var total runner.Stats
	for _, ft := range fault.AllTypes() {
		row := Table53Row{Fault: ft, Runs: cc.Runs}
		results, stats := RunBatch(cc, crashAt(validationBatch(cfg, ft, cc.Runs), crash))
		snaps := make([]*metrics.Snapshot, 0, len(results))
		for _, r := range results {
			if r.Err != nil || !r.Value.OK() {
				row.Failed++
			}
			if r.Err == nil {
				snaps = append(snaps, r.Value.Metrics)
			}
		}
		row.Metrics = runner.MergeMetrics(snaps)
		total.Merge(stats)
		rows = append(rows, row)
	}
	return rows, total
}

// recoveryDistribution is the flashfc DistributionCampaign summarized by
// SummarizeDistribution, run crash panicking (noCrash for none).
func recoveryDistribution(cc CampaignConfig, cfg ScalingConfig, crash int) Distribution {
	results, st := RunBatch(cc, crashAt(Batch[ScalingPoint]{
		Batch:  obs.Batch{Label: "dist", Runs: cc.Runs},
		Stream: runner.StreamDistribution,
		Run:    func(_ int, _ any, seed int64) ScalingPoint { return DistributionRun(cfg, seed) },
	}, crash))
	return SummarizeDistribution(cfg.Nodes, results, st)
}

// sweep runs point i of an n-point sweep with the base seed (the figure
// sweeps derive per-point seeds themselves, if at all) and returns the
// points in order.
func sweep[T any](n int, seed int64, point func(i int, seed int64) T) []T {
	results, _ := RunBatch(CampaignConfig{Seed: seed}, Batch[T]{
		Batch:  obs.Batch{Runs: n},
		Stream: -1,
		Run:    func(i int, _ any, seed int64) T { return point(i, seed) },
	})
	out := make([]T, n)
	for i, r := range results {
		if r.Err != nil {
			panic(r.Err)
		}
		out[i] = r.Value
	}
	return out
}

func fig55(nodeCounts []int, topo machine.TopoKind, seed int64) []ScalingPoint {
	return sweep(len(nodeCounts), seed, func(i int, seed int64) ScalingPoint {
		cfg := DefaultScalingConfig(nodeCounts[i])
		cfg.Topo = topo
		cfg.Seed = seed
		return MeasureRecovery(cfg)
	})
}

func fig56L2(l2Sizes []uint64, seed int64) []ScalingPoint {
	return sweep(len(l2Sizes), seed, func(i int, seed int64) ScalingPoint {
		cfg := DefaultScalingConfig(4)
		cfg.L2Bytes = l2Sizes[i]
		cfg.MemBytes = 4 << 20
		cfg.Seed = seed
		p := MeasureRecovery(cfg)
		p.X = float64(l2Sizes[i]) / (1 << 20)
		return p
	})
}

func fig56Mem(memSizes []uint64, seed int64) []ScalingPoint {
	return sweep(len(memSizes), seed, func(i int, seed int64) ScalingPoint {
		cfg := DefaultScalingConfig(4)
		cfg.MemBytes = memSizes[i]
		cfg.Seed = seed
		p := MeasureRecovery(cfg)
		p.X = float64(memSizes[i]) / (1 << 20)
		return p
	})
}

func fig57(nodeCounts []int, memBytes, l2Bytes uint64, seed int64) []Fig57Point {
	return sweep(len(nodeCounts), seed, func(i int, seed int64) Fig57Point {
		return Fig57One(nodeCounts[i], memBytes, l2Bytes, seed)
	})
}
