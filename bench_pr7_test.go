package flashfc_test

// The PR 7 benchmark suite: degradation-fault tail-campaign numbers behind
// BENCH_PR7.json. The Warm/Cold pair runs the identical tail campaign —
// every degradation class (transient-link, fail-slow, CPU-fail/memory-
// survives) through warm-forked validation runs — with warm-start snapshot
// sharing on and off. Results are bit-identical, so ns_per_op(cold)/
// ns_per_op(warm) is exactly the amortization the tail campaign inherits
// from the snapshot/fork machinery: at 1000+ runs per scenario the warm-up
// would otherwise dominate the campaign's cost.
//
// Like the PR 5 pair, the campaign keeps the default warm-up (FillLines
// 192, the state a fork shares) and measures in campaign style — a short
// 16-line post-fork burst and a stride-32 sampled verification sweep — so
// the quantity being amortized is not swamped by per-run work both modes
// pay identically.

import (
	"testing"

	"flashfc"
)

func benchPR7Tail(b *testing.B, warm flashfc.WarmStartMode) {
	b.Helper()
	cfg := flashfc.DefaultTailConfig()
	cfg.BurstLines = 16
	cfg.Stride = 32
	cc := flashfc.CampaignConfig{Seed: 11, Runs: 16, Workers: 1, WarmStart: warm}
	var events float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := flashfc.RunTailCampaign(cc, cfg)
		for _, sc := range r.Scenarios {
			if sc.Failed != 0 {
				b.Fatalf("%v: %d/%d runs failed", sc.Fault, sc.Failed, sc.Runs)
			}
		}
		events += float64(r.Stats.Events)
	}
	b.StopTimer()
	b.ReportMetric(events/float64(b.N), "sim-events/op")
	b.ReportMetric(events/b.Elapsed().Seconds(), "sim-events/s")
}

// BenchmarkPR7TailWarm / BenchmarkPR7TailCold: the 3-scenario tail campaign
// with shared warm snapshots vs a private warm-up per run.
func BenchmarkPR7TailWarm(b *testing.B) { benchPR7Tail(b, flashfc.WarmStartOn) }
func BenchmarkPR7TailCold(b *testing.B) { benchPR7Tail(b, flashfc.WarmStartOff) }
