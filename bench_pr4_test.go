package flashfc_test

// The PR 4 benchmark suite: the reproducible harness behind
// scripts/bench.sh and BENCH_PR4.json. These benchmarks pin the engine's
// throughput trajectory — the 16-node node-failure validation campaign is
// the acceptance benchmark (>= 1.5x events/sec over the pre-wheel engine),
// and the end-to-end campaign covers the Hive workload path. All campaign
// benchmarks run single-worker so they measure engine throughput, not host
// parallelism (BenchmarkCampaignWorkers* already covers scaling).

import (
	"testing"

	"flashfc"
)

// benchPR4Validation runs one fixed single-worker validation campaign per
// iteration and reports simulated events per wall-clock second plus the
// simulated-event volume per iteration (bench.sh divides allocs/op by
// events/op to get allocs/event).
func benchPR4Validation(b *testing.B, nodes, runs int) {
	b.Helper()
	cfg := flashfc.DefaultValidationConfig()
	cfg.Nodes = nodes
	cfg.MemBytes = 64 << 10
	cfg.L2Bytes = 16 << 10
	cfg.FillLines = 64
	// Warm-start sharing (PR 5) is pinned off so this series keeps
	// measuring the full un-amortized per-run cost across PRs; the
	// BenchmarkPR5 series measures the warm-start gain explicitly.
	ccfg := flashfc.CampaignConfig{Seed: 7, Runs: runs, Workers: 1, WarmStart: flashfc.WarmStartOff}
	var eventsPerSec, eventsPerOp float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := flashfc.RunCampaign(ccfg, flashfc.ValidationCampaign{Config: cfg, Fault: flashfc.NodeFailure})
		results, stats := out.Runs, out.Stats
		for _, r := range results {
			if r.Err != nil || !r.Value.OK() {
				b.Fatalf("campaign run failed: %v", r.Err)
			}
		}
		eventsPerSec += stats.EventsPerSec()
		eventsPerOp += float64(stats.Events)
	}
	b.ReportMetric(eventsPerSec/float64(b.N), "sim-events/s")
	b.ReportMetric(eventsPerOp/float64(b.N), "sim-events/op")
}

// BenchmarkPR4Validation16 is the acceptance benchmark: a 16-node
// node-failure validation campaign, single worker, fixed seed.
func BenchmarkPR4Validation16(b *testing.B) { benchPR4Validation(b, 16, 4) }

// BenchmarkPR4Validation8 is the same campaign at the paper's default
// 8-node geometry, for cross-checking that wins hold across sizes.
func BenchmarkPR4Validation8(b *testing.B) { benchPR4Validation(b, 8, 4) }

// BenchmarkPR4EndToEnd runs a fixed single-worker end-to-end (Hive
// parallel-make) campaign per iteration: the workload path exercises the
// processor retirement and MAGIC dispatch hot paths harder than the
// validation filler does.
func BenchmarkPR4EndToEnd(b *testing.B) {
	cfg := flashfc.DefaultEndToEndConfig()
	cfg.MemBytes = 256 << 10
	cfg.L2Bytes = 32 << 10
	var eventsPerSec, eventsPerOp float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := flashfc.RunCampaign(
			flashfc.CampaignConfig{Seed: 7, Runs: 2, Workers: 1},
			flashfc.EndToEndCampaign{Config: cfg, Fault: flashfc.NodeFailure})
		for _, r := range out.Runs {
			if r.Err != nil || !r.Value.OK() {
				b.Fatalf("campaign run failed: %v", r.Err)
			}
		}
		eventsPerSec += out.Stats.EventsPerSec()
		eventsPerOp += float64(out.Stats.Events)
	}
	b.ReportMetric(eventsPerSec/float64(b.N), "sim-events/s")
	b.ReportMetric(eventsPerOp/float64(b.N), "sim-events/op")
}
