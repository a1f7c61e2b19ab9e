package flashfc

import (
	"time"

	"flashfc/internal/experiments"
	"flashfc/internal/obs"
	"flashfc/internal/runner"
)

// Campaign API: one typed entry point for every experiment family.
//
// The experiment suite grew one positional-argument function per driver
// (RunFig55(nodes, topo, seed, workers), RunTable53(cfg, runs, seed), …),
// each spelling seed/worker/metrics plumbing slightly differently. The
// Campaign API splits those concerns: CampaignConfig carries the execution
// envelope (seed, run count, parallelism, metrics, tracing) shared by every
// campaign, a per-experiment struct carries only what that experiment
// actually varies, and RunCampaign composes the two. The old positional
// wrappers are gone; this is the batch entry point.
//
//	out := flashfc.RunCampaign(
//	    flashfc.CampaignConfig{Seed: 1, Runs: 200, Metrics: true},
//	    flashfc.ValidationCampaign{Config: flashfc.DefaultValidationConfig(), Fault: flashfc.NodeFailure},
//	)
//	for _, r := range out.Runs { … }
//	fmt.Println(out.Stats)

// CampaignConfig is the execution envelope of one campaign: everything
// about how runs execute (seed, run count, parallelism, metrics, tracing,
// warm-start, observer), nothing about what they simulate. Every campaign
// family — RunCampaign, RunTailCampaign, RunRoutingCampaign — takes it.
type CampaignConfig = experiments.CampaignConfig

// RunEnv is the per-run environment RunCampaign hands an Experiment.
type RunEnv struct {
	// Trace is the campaign tracer; non-nil only for single-run campaigns
	// whose CampaignConfig carried one.
	Trace *Tracer
}

// Experiment is one experiment family producing a T per run. Implementations
// are small config structs (ValidationCampaign, Fig55Campaign, …); custom
// experiments only need these three methods.
type Experiment[T any] interface {
	// Stream is the campaign's seed-derivation stream. Non-negative
	// streams give run i the engine seed DeriveSeed(base, Stream(), i);
	// a negative stream passes the base seed through unchanged (sweeps
	// that derive their own per-point seeds).
	Stream() int
	// Points is the fixed number of runs of a sweep, or 0 for experiments
	// that repeat CampaignConfig.Runs times.
	Points() int
	// Run performs run i with the derived seed.
	Run(env RunEnv, i int, seed int64) T
}

// WarmExperiment is an Experiment whose runs can fork a shared, immutable
// warm state (a machine snapshot) instead of warming up from scratch.
// RunCampaign uses it automatically: with warm-start on (the default),
// Warmup runs once per worker and RunWarm replaces Run; with warm-start
// off, every run builds a private warm state and forks it — the identical
// computation, so both modes (and the legacy Run path they replace) stay
// deterministic per (seed, i).
//
// Warmup must be deterministic in cfg alone, and RunWarm must treat ws as
// read-only (fork, never mutate) — that is what keeps any worker count and
// both modes bit-identical.
type WarmExperiment[T any] interface {
	Experiment[T]
	// Warmup builds the shared warm state for one worker.
	Warmup(cfg CampaignConfig) any
	// RunWarm performs run i from the warm state ws.
	RunWarm(env RunEnv, ws any, i int, seed int64) T
}

// CampaignRun is one run of a campaign: the produced value plus host-side
// accounting.
type CampaignRun[T any] struct {
	// Value is the run's result (the zero T when Err is non-nil).
	Value T
	// Err is non-nil when the run panicked; the campaign keeps going.
	Err error
	// Wall is the host wall-clock time the run took.
	Wall time.Duration
	// Events is the run's simulated-event count (0 if the experiment
	// does not report one).
	Events uint64
}

// CampaignResult is everything one campaign produced.
type CampaignResult[T any] struct {
	// Runs holds the per-run results in run order, independent of worker
	// scheduling.
	Runs []CampaignRun[T]
	// Stats is the campaign's host-side accounting.
	Stats CampaignStats
	// Metrics is the campaign aggregate of every non-crashed run's metric
	// snapshot, merged in run order; nil unless CampaignConfig.Metrics
	// was set.
	Metrics *MetricsSnapshot
}

// Values returns the runs' values in run order, re-raising the first
// captured panic — the convenience accessor for campaigns whose runs are
// not expected to crash.
func (r CampaignResult[T]) Values() []T {
	out := make([]T, len(r.Runs))
	for i, run := range r.Runs {
		if run.Err != nil {
			panic(run.Err.(*runner.PanicError).Value)
		}
		out[i] = run.Value
	}
	return out
}

// RunCampaign executes exp under cfg: Points() (or cfg.Runs) independent
// runs on up to cfg.Workers goroutines, with per-run seeds derived from
// (cfg.Seed, exp.Stream(), i). Results are bit-identical for any worker
// count; a run that panics becomes a failed CampaignRun instead of
// aborting the campaign. It adapts exp onto the one forked-batch path
// (experiments.RunBatch): a WarmExperiment forks its runs from Warmup,
// built once per worker or — with warm-start off — once per run.
func RunCampaign[T any](cfg CampaignConfig, exp Experiment[T]) CampaignResult[T] {
	n := exp.Points()
	if n == 0 {
		n = cfg.Runs
	}
	env := RunEnv{}
	if n == 1 {
		env.Trace = cfg.Trace
	}
	b := experiments.Batch[T]{
		Batch:  batchOf(exp, n),
		Stream: exp.Stream(),
		Run:    func(i int, _ any, seed int64) T { return exp.Run(env, i, seed) },
	}
	if warm, ok := exp.(WarmExperiment[T]); ok {
		b.Warmup = func(int64) any { return warm.Warmup(cfg) }
		b.Run = func(i int, ws any, seed int64) T { return warm.RunWarm(env, ws, i, seed) }
	}
	results, stats := experiments.RunBatch(cfg, b)
	out := CampaignResult[T]{Stats: stats, Runs: make([]CampaignRun[T], len(results))}
	var snaps []*MetricsSnapshot
	for i, r := range results {
		out.Runs[i] = CampaignRun[T]{Value: r.Value, Err: r.Err, Wall: r.Wall, Events: r.Events}
		if cfg.Metrics && r.Err == nil {
			if s := snapshotOf(r.Value); s != nil {
				snaps = append(snaps, s)
			}
		}
	}
	if cfg.Metrics {
		out.Metrics = MergeMetrics(snaps)
	}
	return out
}

// batchOf names the batch a campaign announces to its observability sink.
func batchOf(exp any, n int) obs.Batch {
	switch e := exp.(type) {
	case ValidationCampaign:
		return obs.Batch{Label: "validation", Fault: e.Fault.String(), Runs: n}
	case EndToEndCampaign:
		return obs.Batch{Label: "end-to-end", Fault: e.Fault.String(), Runs: n}
	case Fig55Campaign:
		return obs.Batch{Label: "fig5.5", Runs: n}
	case Fig56L2Campaign:
		return obs.Batch{Label: "fig5.6-l2", Runs: n}
	case Fig56MemCampaign:
		return obs.Batch{Label: "fig5.6-mem", Runs: n}
	case Fig57Campaign:
		return obs.Batch{Label: "fig5.7", Runs: n}
	case DistributionCampaign:
		return obs.Batch{Label: "dist", Runs: n}
	default:
		return obs.Batch{Label: "campaign", Runs: n}
	}
}

// snapshotOf extracts the metric snapshot the known result types carry.
func snapshotOf(v any) *MetricsSnapshot {
	switch r := v.(type) {
	case *ValidationResult:
		if r != nil {
			return r.Metrics
		}
	case *EndToEndResult:
		if r != nil {
			return r.Metrics
		}
	case ScalingPoint:
		return r.Metrics
	}
	return nil
}

// --- Per-experiment config structs ---------------------------------------

// ValidationCampaign repeats §5.2 validation runs of one fault type
// (Table 5.3's per-type batches). Each run fills caches, injects the fault
// mid-fill, recovers, and verifies all of memory against the oracle.
type ValidationCampaign struct {
	// Config shapes the runs; use DefaultValidationConfig() as the base.
	// Its Trace field is superseded by the CampaignConfig.
	Config ValidationConfig
	Fault  FaultType
}

func (c ValidationCampaign) Stream() int { return runner.StreamValidation + int(c.Fault) }
func (c ValidationCampaign) Points() int { return 0 }
func (c ValidationCampaign) Run(env RunEnv, _ int, seed int64) *ValidationResult {
	cfg := c.Config
	cfg.Trace = env.Trace
	return experiments.Validation(cfg, c.Fault, seed)
}

// Warmup implements WarmExperiment: one cache-fill warm-up, keyed on the
// campaign seed via StreamWarmup, frozen into a forkable snapshot.
func (c ValidationCampaign) Warmup(cfg CampaignConfig) any {
	return experiments.WarmupValidation(c.Config, experiments.WarmSeed(cfg.Seed))
}

// RunWarm implements WarmExperiment: fork the warm snapshot and run the
// fault/recovery/verify sequence with the run's derived seed.
func (c ValidationCampaign) RunWarm(env RunEnv, ws any, _ int, seed int64) *ValidationResult {
	return experiments.ValidationFromWarm(ws.(*experiments.WarmState), c.Fault, seed, env.Trace)
}

// EndToEndCampaign repeats §5.1 Hive parallel-make runs of one fault type
// (Table 5.4's per-type batches).
type EndToEndCampaign struct {
	// Config shapes the runs; use DefaultEndToEndConfig() as the base.
	Config EndToEndConfig
	Fault  FaultType
}

func (c EndToEndCampaign) Stream() int { return runner.StreamEndToEnd + int(c.Fault) }
func (c EndToEndCampaign) Points() int { return 0 }
func (c EndToEndCampaign) Run(_ RunEnv, _ int, seed int64) *EndToEndResult {
	return experiments.EndToEnd(c.Config, c.Fault, seed)
}

// Fig55Campaign sweeps machine sizes and measures total hardware recovery
// time per size (Fig 5.5). Every point uses the campaign's base seed, as in
// the paper's single-curve presentation.
type Fig55Campaign struct {
	Nodes []int
	Topo  TopoKind
	// Routing optionally names the recovery routing strategy ("" = paper).
	Routing string
}

func (c Fig55Campaign) Stream() int { return -1 }
func (c Fig55Campaign) Points() int { return len(c.Nodes) }
func (c Fig55Campaign) Run(_ RunEnv, i int, seed int64) ScalingPoint {
	cfg := experiments.DefaultScalingConfig(c.Nodes[i])
	cfg.Topo = c.Topo
	cfg.Seed = seed
	cfg.Routing = c.Routing
	return experiments.MeasureRecovery(cfg)
}

// Fig56L2Campaign sweeps the second-level cache size at 4 nodes (Fig 5.6
// left): the flush component of coherence recovery scales with the L2.
type Fig56L2Campaign struct {
	L2Sizes []uint64
	// Routing optionally names the recovery routing strategy ("" = paper).
	Routing string
}

func (c Fig56L2Campaign) Stream() int { return -1 }
func (c Fig56L2Campaign) Points() int { return len(c.L2Sizes) }
func (c Fig56L2Campaign) Run(_ RunEnv, i int, seed int64) ScalingPoint {
	cfg := experiments.DefaultScalingConfig(4)
	cfg.L2Bytes = c.L2Sizes[i]
	cfg.MemBytes = 4 << 20
	cfg.Seed = seed
	cfg.Routing = c.Routing
	p := experiments.MeasureRecovery(cfg)
	p.X = float64(c.L2Sizes[i]) / (1 << 20)
	return p
}

// Fig56MemCampaign sweeps the per-node memory size at 4 nodes (Fig 5.6
// right): the directory-sweep component scales with memory.
type Fig56MemCampaign struct {
	MemSizes []uint64
	// Routing optionally names the recovery routing strategy ("" = paper).
	Routing string
}

func (c Fig56MemCampaign) Stream() int { return -1 }
func (c Fig56MemCampaign) Points() int { return len(c.MemSizes) }
func (c Fig56MemCampaign) Run(_ RunEnv, i int, seed int64) ScalingPoint {
	cfg := experiments.DefaultScalingConfig(4)
	cfg.MemBytes = c.MemSizes[i]
	cfg.Seed = seed
	cfg.Routing = c.Routing
	p := experiments.MeasureRecovery(cfg)
	p.X = float64(c.MemSizes[i]) / (1 << 20)
	return p
}

// Fig57Campaign sweeps machine sizes (one Hive cell per node) and measures
// user-process suspension after a node failure (Fig 5.7). Per-point seeds
// derive from the node count, so adding sizes never reshuffles existing
// points.
type Fig57Campaign struct {
	Nodes    []int
	MemBytes uint64
	L2Bytes  uint64
}

func (c Fig57Campaign) Stream() int { return -1 }
func (c Fig57Campaign) Points() int { return len(c.Nodes) }
func (c Fig57Campaign) Run(_ RunEnv, i int, seed int64) Fig57Point {
	return experiments.Fig57One(c.Nodes[i], c.MemBytes, c.L2Bytes, seed)
}

// DistributionCampaign repeats node-failure recoveries across derived
// seeds — and, when Config.Victim is -1, across fault placements — to
// quantify how tight the paper's single representative numbers are.
// Summarize the outcome with SummarizeRecovery.
type DistributionCampaign struct {
	// Config shapes the runs; use DefaultScalingConfig(n) as the base.
	Config ScalingConfig
}

func (c DistributionCampaign) Stream() int { return runner.StreamDistribution }
func (c DistributionCampaign) Points() int { return 0 }
func (c DistributionCampaign) Run(_ RunEnv, _ int, seed int64) ScalingPoint {
	return experiments.DistributionRun(c.Config, seed)
}

// SummarizeRecovery folds a DistributionCampaign's outcome into per-phase
// recovery-time distributions.
func SummarizeRecovery(nodes int, out CampaignResult[ScalingPoint]) RecoveryDistribution {
	return experiments.SummarizeDistribution(nodes, toRunnerResults(out.Runs), out.Stats)
}

// toRunnerResults converts campaign runs back to the runner's result form.
func toRunnerResults[T any](runs []CampaignRun[T]) []runner.Result[T] {
	out := make([]runner.Result[T], len(runs))
	for i, r := range runs {
		out[i] = runner.Result[T]{Value: r.Value, Err: r.Err, Wall: r.Wall, Events: r.Events}
	}
	return out
}
