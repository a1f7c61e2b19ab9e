package flashfc_test

// The PR 8 benchmark suite: the observability overhead guard behind
// BENCH_PR8.json. The Plain/Observed pair runs the identical tail campaign
// with no sink attached and with the full observability stack attached — a
// RunLog (reordering records to run-index order, JSON-encoding every one)
// fanned together with a Progress reporter, both writing to io.Discard so
// the pair measures the instrumentation itself rather than disk or
// terminal throughput. Campaign results are bit-identical either way, so
// ns_per_op(observed)/ns_per_op(plain) is exactly the streaming cost, and
// the acceptance bar requires it to stay within 1.05 (a ≤5% slowdown).

import (
	"io"
	"testing"

	"flashfc"
)

func benchPR8Tail(b *testing.B, observed bool) {
	b.Helper()
	cfg := flashfc.DefaultTailConfig()
	cfg.BurstLines = 16
	cfg.Stride = 32
	cc := flashfc.CampaignConfig{Seed: 11, Runs: 16, Workers: 1}
	var events float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var log *flashfc.RunLog
		if observed {
			log = flashfc.NewRunLog(io.Discard, false)
			progress := flashfc.NewProgress(io.Discard)
			cc.Observe = flashfc.MultiSink(log, progress)
		}
		r := flashfc.RunTailCampaign(cc, cfg)
		if observed {
			cc.Observe.Finish()
			if err := log.Err(); err != nil {
				b.Fatalf("run log: %v", err)
			}
		}
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

// BenchmarkPR8TailPlain / BenchmarkPR8TailObserved: the 3-scenario tail
// campaign bare vs streamed through RunLog+Progress.
func BenchmarkPR8TailPlain(b *testing.B)    { benchPR8Tail(b, false) }
func BenchmarkPR8TailObserved(b *testing.B) { benchPR8Tail(b, true) }
