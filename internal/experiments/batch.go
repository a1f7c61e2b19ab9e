package experiments

import (
	"flashfc/internal/obs"
	"flashfc/internal/runner"
	"flashfc/internal/trace"
)

// The forked-batch path: every campaign family — Table 5.3/5.4 batches, the
// figure sweeps, the distribution, tail and routing campaigns — is a batch
// of independent runs, optionally forked from a shared warm state. RunBatch
// is the one place that derives per-run seeds, chooses how the warm state
// is built, reports events and feeds the observer; the families only say
// what one run does.

// CampaignConfig is the execution envelope of one campaign: everything
// about how runs execute, nothing about what they simulate.
type CampaignConfig struct {
	// Seed is the campaign's base seed. Batches with a non-negative Stream
	// derive every run's engine seed as DeriveSeed(Seed, stream, i);
	// sweeps with a negative Stream receive Seed directly and derive
	// internally (their run index is a sweep coordinate, not a
	// repetition). The warm state is always seeded DeriveSeed(Seed,
	// StreamWarmup, 0).
	Seed int64
	// Runs is the number of runs for experiments that repeat; fixed sweeps
	// ignore it. The tail and routing campaigns default 0 to
	// DefaultTailRuns and DefaultRoutingRuns.
	Runs int
	// Workers bounds the goroutines the campaign may use; 0 means one per
	// CPU. Any worker count yields bit-identical results.
	Workers int
	// Metrics, when set, merges every non-crashed run's machine-wide
	// metric snapshot (in run order) into the campaign result, for the
	// families whose result carries one.
	Metrics bool
	// Trace, when non-nil, collects the run's event timeline. It applies
	// only to single-run campaigns: interleaving many runs' simulated
	// timelines into one trace produces nonsense, so multi-run campaigns
	// ignore it.
	Trace *trace.Tracer
	// WarmStart controls warm-up amortization for batches that fork a warm
	// state. The default (Auto) builds one warm state per worker, lazily
	// inside its first run, and forks every run from it; Off rebuilds the
	// warm state privately for every run. Both modes execute the identical
	// per-run computation, so results are bit-identical — Off is the
	// cross-check and the cost baseline.
	WarmStart WarmStartMode
	// Observe, when non-nil, receives the campaign's observability stream:
	// one Batch announcement per batch, then one RunRecord per run in
	// completion order (sinks needing index order reorder internally —
	// RunLog does). Campaigns never call Finish; the sink's owner does,
	// after its last campaign.
	Observe obs.Sink
}

// WarmStartMode selects how a batch amortizes warm-up: Auto (the zero
// value) and On share one warm state per worker and fork every run from
// it; Off builds a private warm state for every run. Both modes execute the
// identical per-run computation — fork from a snapshot of the same
// deterministic warm-up — so they are bit-identical; Off exists as the
// cross-check (and the cost baseline the benchmarks compare against).
type WarmStartMode int

const (
	// WarmStartAuto is the default: warm-start on.
	WarmStartAuto WarmStartMode = iota
	// WarmStartOff rebuilds the warm state privately for every run.
	WarmStartOff
	// WarmStartOn shares one warm snapshot per worker (same as Auto).
	WarmStartOn
)

// Enabled reports whether runs may share a warm snapshot.
func (m WarmStartMode) Enabled() bool { return m != WarmStartOff }

// Batch is one batch of forked runs: what each run does, how its seed
// derives, and how the observer names the batch (obs.Batch's Label and
// Fault; Runs is the batch size).
type Batch[T any] struct {
	obs.Batch
	// Stream is the seed-derivation stream: run i gets DeriveSeed(base,
	// Stream, i), or the base seed itself when Stream is negative.
	Stream int
	// Warmup, when non-nil, builds the warm state the runs fork from,
	// seeded by warmSeed alone. It must be deterministic, and runs must
	// treat its result as read-only.
	Warmup func(warmSeed int64) any
	// Run performs run i with its derived seed; ws is the Warmup result
	// (nil without a Warmup).
	Run func(i int, ws any, seed int64) T
}

// RunBatch executes b under cfg: b.Runs independent runs on up to
// cfg.Workers goroutines, results in run order and bit-identical for any
// worker count or warm-start mode. A run that panics becomes a failed
// result (and a "panic" record) instead of aborting the batch.
func RunBatch[T any](cfg CampaignConfig, b Batch[T]) ([]runner.Result[T], runner.Stats) {
	seedFor := func(i int) int64 { return runSeed(cfg.Seed, b.Stream, i) }
	// The warm-start choice: one lazy warm-up per worker, or one per run.
	var setup func() any
	perRun := b.Warmup
	if b.Warmup != nil && cfg.WarmStart.Enabled() {
		setup = func() any { return b.Warmup(WarmSeed(cfg.Seed)) }
		perRun = nil
	}
	run := func(i int, ws any, rec *runner.Recorder) T {
		if perRun != nil {
			ws = perRun(WarmSeed(cfg.Seed))
		}
		v := b.Run(i, ws, seedFor(i))
		rec.Report(eventsOf(v))
		return v
	}
	var observe func(i int, r runner.Result[T])
	if cfg.Observe != nil {
		cfg.Observe.StartBatch(b.Batch)
		observe = func(i int, r runner.Result[T]) {
			cfg.Observe.RunDone(recordOf(i, seedFor(i), r))
		}
	}
	return runner.CampaignWithSetup(b.Runs, cfg.Workers, setup, run, observe)
}

// runSeed derives the engine seed of run i of a batch on stream; a
// negative stream passes the base seed through (sweeps derive their own).
func runSeed(base int64, stream, i int) int64 {
	if stream < 0 {
		return base
	}
	return runner.DeriveSeed(base, stream, i)
}

// WarmSeed derives the seed of a campaign's warm state. It depends only on
// the base seed — never on a run index, fault type or stream — so every
// worker, every batch of the campaign and every replay rebuilds the
// identical snapshot.
func WarmSeed(base int64) int64 { return runner.DeriveSeed(base, runner.StreamWarmup, 0) }
