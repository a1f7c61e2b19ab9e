package flashfc_test

// The PR 9 benchmark suite: the routing-strategy head-to-head behind
// BENCH_PR9.json. The Paper/Adaptive pair runs the identical single-link
// head-to-head scenario restricted to one strategy each — the run seeds
// never involve the strategy, so both replay byte-identical faults and
// the only difference is the recovery discipline: the paper strategy's
// full drain + whole-table up*/down* rebuild vs the adaptive strategy's
// drain-free region avoidance. The recorded simulated recovery time of
// each (sim-recovery-ns/op: the campaign's median containment time)
// feeds the adaptive_vs_paper_recovery ratio in BENCH_PR9.json; the
// acceptance bar requires adaptive to recover strictly faster than the
// paper baseline (ratio < 1) with zero deadlocks and zero failures.

import (
	"testing"

	"flashfc"
)

func benchPR9Routing(b *testing.B, strategy string) {
	b.Helper()
	cfg := flashfc.DefaultRoutingConfig()
	cfg.BurstLines = 16
	cfg.Stride = 32
	cfg.Strategies = []string{strategy}
	cfg.Scenarios = []flashfc.RoutingScenarioSpec{{Name: "single-link", Links: 1}}
	var events, recovery float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := flashfc.RunRoutingCampaign(flashfc.CampaignConfig{Seed: 11, Runs: 8, Workers: 1}, cfg)
		for _, sc := range r.Scenarios {
			for _, c := range sc.Cells {
				if c.Failed != 0 || c.Deadlocks != 0 {
					b.Fatalf("%s/%s: failed=%d deadlocks=%d",
						sc.Spec.Name, c.Strategy, c.Failed, c.Deadlocks)
				}
				recovery += float64(c.RecoveryP50)
			}
		}
		events += float64(r.Stats.Events)
	}
	b.StopTimer()
	b.ReportMetric(recovery/float64(b.N), "sim-recovery-ns/op")
	b.ReportMetric(events/float64(b.N), "sim-events/op")
	b.ReportMetric(events/b.Elapsed().Seconds(), "sim-events/s")
}

// BenchmarkPR9RoutingPaper / BenchmarkPR9RoutingAdaptive: the single-link
// head-to-head scenario under each strategy; identical faults, different
// recovery discipline.
func BenchmarkPR9RoutingPaper(b *testing.B)    { benchPR9Routing(b, "paper") }
func BenchmarkPR9RoutingAdaptive(b *testing.B) { benchPR9Routing(b, "adaptive") }
