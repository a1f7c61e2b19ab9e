package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/obs"
	"flashfc/internal/runner"
)

// fastTailConfig shrinks the tail campaign to test scale.
func fastTailConfig() TailConfig {
	cfg := DefaultTailConfig()
	cfg.FillLines = 64
	return cfg
}

// fastTailRuns is the unit suite's per-scenario tail run count.
const fastTailRuns = 8

// observed runs campaign with a RunLog attached to cc and returns the
// JSONL bytes, finishing the sink the way a driver would.
func observed(t *testing.T, cc CampaignConfig, campaign func(CampaignConfig)) string {
	t.Helper()
	var buf bytes.Buffer
	log := obs.NewRunLog(&buf, false)
	cc.Observe = log
	campaign(cc)
	log.Finish()
	if err := log.Err(); err != nil {
		t.Fatalf("run log: %v", err)
	}
	return buf.String()
}

// tailRunLog is the run log of a tail campaign.
func tailRunLog(t *testing.T, cc CampaignConfig, cfg TailConfig) string {
	t.Helper()
	return observed(t, cc, func(cc CampaignConfig) { TailCampaign(cc, cfg) })
}

// TestTailRunLogByteIdentity is the tentpole contract: the JSONL record
// stream of a tail campaign is byte-identical regardless of how many
// run-level workers raced to complete runs, of warm-start, and of the
// intra-machine partition count (among partitioned machines: Partitions 0
// is the sequential machine, whose inter-region links are shorter). The
// RunLog reorders completion-order events back to run-index order and the
// records strip host-side fields.
func TestTailRunLogByteIdentity(t *testing.T) {
	cfg := fastTailConfig()
	cc := CampaignConfig{Seed: 23, Runs: fastTailRuns, Workers: 1}
	want := tailRunLog(t, cc, cfg)
	if want == "" {
		t.Fatal("empty run log")
	}
	cc.Workers = 8
	if got := tailRunLog(t, cc, cfg); got != want {
		t.Errorf("run log differs between 1 and 8 workers:\n1: %q\n8: %q", want, got)
	}
	cc.WarmStart = WarmStartOff
	if got := tailRunLog(t, cc, cfg); got != want {
		t.Errorf("run log differs between warm-start on and off")
	}
	cc.WarmStart = WarmStartAuto
	cfg.Partitions = 1
	want = tailRunLog(t, cc, cfg)
	cfg.Partitions = 4
	if got := tailRunLog(t, cc, cfg); got != want {
		t.Errorf("run log differs between partitions 1 and 4")
	}
}

// TestTailRunLogRecords checks the stream's shape: one batch per fault
// class, run indices 0..runs-1 in order within each batch, and every record
// carrying the derived seed that reproduces it (asserted by replaying one).
func TestTailRunLogRecords(t *testing.T) {
	cfg := fastTailConfig()
	seed := int64(23)
	cc := CampaignConfig{Seed: seed, Runs: fastTailRuns}
	lines := strings.Split(strings.TrimSuffix(tailRunLog(t, cc, cfg), "\n"), "\n")
	faults := fault.ExtendedTypes()
	if want := fastTailRuns * len(faults); len(lines) != want {
		t.Fatalf("got %d records, want %d", len(lines), want)
	}
	for n, line := range lines {
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d: %v\n%s", n, err, line)
		}
		batch, i := n/fastTailRuns, n%fastTailRuns
		if rec.Run != i {
			t.Fatalf("record %d: run index %d, want %d", n, rec.Run, i)
		}
		if want := tailRunSeed(seed, faults[batch], i); rec.Seed != want {
			t.Errorf("record %d: seed %d, want %d", n, rec.Seed, want)
		}
		if rec.Outcome != obs.OutcomePass {
			t.Errorf("record %d: outcome %q, note %q", n, rec.Outcome, rec.Note)
		}
		if rec.WallNS != 0 || rec.Worker != 0 {
			t.Errorf("record %d: host fields not stripped: wall=%d worker=%d",
				n, rec.WallNS, rec.Worker)
		}
		if rec.ContainmentNS <= 0 {
			t.Errorf("record %d: containment %d", n, rec.ContainmentNS)
		}
	}
	// The first record's seed reproduces the first record's containment
	// time: any run-log row is replayable.
	var first obs.RunRecord
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	e := ReplayTailRun(cfg, faults[0], seed, first.Run)
	if e.Seed != first.Seed {
		t.Fatalf("replay derived seed %d, record says %d", e.Seed, first.Seed)
	}
	if int64(e.TracedTime) != first.ContainmentNS {
		t.Errorf("replayed containment %d, record says %d",
			int64(e.TracedTime), first.ContainmentNS)
	}
}

// TestTailRunLogPanicRecord injects a panic into one run of every tail
// batch and requires it to surface as a well-formed "panic" record at the
// right index — observability must not lose crashed runs, and the stream
// stays complete and ordered around them.
func TestTailRunLogPanicRecord(t *testing.T) {
	cfg := fastTailConfig()
	cc := CampaignConfig{Seed: 23, Runs: fastTailRuns, Workers: 4}
	log := observed(t, cc, func(cc CampaignConfig) {
		for _, ft := range fault.ExtendedTypes() {
			tail := forkedValidation(cfg.ValidationConfig, "tail", runner.StreamTail, ft, cc.Runs)
			RunBatch(cc, crashAt(tail, 3))
		}
	})
	lines := strings.Split(strings.TrimSuffix(log, "\n"), "\n")
	if want := fastTailRuns * len(fault.ExtendedTypes()); len(lines) != want {
		t.Fatalf("got %d records, want %d (panics must not drop records)", len(lines), want)
	}
	panics := 0
	for n, line := range lines {
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if rec.Run != n%fastTailRuns {
			t.Fatalf("record %d: run index %d, want %d", n, rec.Run, n%fastTailRuns)
		}
		if rec.Run == 3 {
			panics++
			if rec.Outcome != obs.OutcomePanic {
				t.Errorf("crashed run logged as %q", rec.Outcome)
			}
			if !strings.Contains(rec.Note, "injected driver crash") {
				t.Errorf("panic note %q does not name the panic", rec.Note)
			}
			if rec.Fault != "" || rec.ContainmentNS != 0 {
				t.Errorf("panic record carries run payload: %+v", rec)
			}
		} else if rec.Outcome != obs.OutcomePass {
			t.Errorf("record %d: outcome %q", n, rec.Outcome)
		}
	}
	if want := len(fault.ExtendedTypes()); panics != want {
		t.Errorf("%d panic records, want %d", panics, want)
	}
}

// TestTailExemplarReplayExact is the acceptance contract: replaying the
// runs behind a finished tail campaign's p50/p99/p999 — same warm fork,
// same derived seeds, tracing on — reproduces every recorded observation
// exactly. In particular the traced p999 containment time equals the
// campaign's recorded p999 observation bit-for-bit.
func TestTailExemplarReplayExact(t *testing.T) {
	cfg := fastTailConfig()
	seed := int64(31)
	cc := CampaignConfig{Seed: seed, Runs: 10}
	res := TailCampaign(cc, cfg)
	replays := ReplayTailExemplars(cfg, seed, res)
	if want := len(res.Scenarios) * len(TailPercentiles); len(replays) != want {
		t.Fatalf("%d replays, want %d", len(replays), want)
	}
	for _, e := range replays {
		if !e.Match() {
			t.Errorf("%v p%g: traced %v != campaign %v (run %d seed %d)",
				e.Fault, e.Pct, e.TracedTime, e.CampaignTime, e.Run, e.Seed)
		}
		if e.Trace == nil || len(e.Trace.CriticalPaths()) == 0 {
			t.Errorf("%v p%g: replay produced no critical path", e.Fault, e.Pct)
		}
		if !e.Result.OK() {
			t.Errorf("%v p%g: replayed run failed: %s", e.Fault, e.Pct, e.Result.Note)
		}
	}
	// The p999 exemplar must be a real observation: at 10 runs nearest-rank
	// p999 is the maximum, so its time equals the largest passing time.
	for _, sc := range res.Scenarios {
		ex := sc.Exemplars[len(sc.Exemplars)-1]
		if ex.Pct != 99.9 {
			t.Fatalf("%v: last exemplar is p%g, want p99.9", sc.Fault, ex.Pct)
		}
		if ex.Run < 0 || ex.Run >= cc.Runs {
			t.Errorf("%v: exemplar run %d out of range", sc.Fault, ex.Run)
		}
	}
	// And the exemplar set itself is deterministic.
	res2 := TailCampaign(cc, cfg)
	for i, sc := range res.Scenarios {
		if len(sc.Exemplars) != len(res2.Scenarios[i].Exemplars) {
			t.Fatalf("%v: exemplar count changed between identical campaigns", sc.Fault)
		}
		for j, ex := range sc.Exemplars {
			if ex != res2.Scenarios[i].Exemplars[j] {
				t.Errorf("%v: exemplar %d differs between identical campaigns: %+v vs %+v",
					sc.Fault, j, ex, res2.Scenarios[i].Exemplars[j])
			}
		}
	}
}

// TestWriteExemplarDeterministicBytes renders one replayed exemplar twice
// (through two fresh campaigns) and requires both output files to be
// byte-identical — the trace JSON and the summary carry no host state.
func TestWriteExemplarDeterministicBytes(t *testing.T) {
	cfg := fastTailConfig()
	render := func(dir string) {
		res := TailCampaign(CampaignConfig{Seed: 23, Runs: 4}, cfg)
		for _, e := range ReplayTailExemplars(cfg, 23, res) {
			et := obs.ExemplarTrace{
				Name:       obs.ExemplarName(e.Fault.String(), e.Pct),
				Fault:      e.Fault.String(),
				Pct:        e.Pct,
				Run:        e.Run,
				Seed:       e.Seed,
				CampaignNS: int64(e.CampaignTime),
				TracedNS:   int64(e.TracedTime),
				Tracer:     e.Trace,
			}
			if err := obs.WriteExemplar(dir, et); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := t.TempDir(), t.TempDir()
	render(a)
	render(b)
	names := []string{"fail-slow-p50", "fail-slow-p999", "cpu-fail-p99"}
	for _, name := range names {
		for _, suffix := range []string{".json", ".trace.json"} {
			fa := readFile(t, a+"/"+name+suffix)
			fb := readFile(t, b+"/"+name+suffix)
			if fa != fb {
				t.Errorf("%s%s differs between two identical renders", name, suffix)
			}
			if fa == "" {
				t.Errorf("%s%s is empty", name, suffix)
			}
		}
	}
	// The summary must verify its own replay and name a dominant step.
	var sum struct {
		Match    bool `json:"match"`
		Critical struct {
			Dominant struct {
				Step string `json:"step"`
			} `json:"dominant"`
		} `json:"critical"`
	}
	if err := json.Unmarshal([]byte(readFile(t, a+"/fail-slow-p999.json")), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Match {
		t.Error("summary reports match=false for a deterministic replay")
	}
	if sum.Critical.Dominant.Step == "" {
		t.Error("summary names no dominant recovery step")
	}
}

// TestValidationBatchObserved wires a sink into the Table 5.3 batches
// (RunBatch via CampaignConfig.Observe) and checks batch metadata and
// record/fault agreement.
func TestValidationBatchObserved(t *testing.T) {
	cfg := fastValidationConfig()
	log := observed(t, CampaignConfig{Seed: 7, Runs: 4}, func(cc CampaignConfig) {
		RunBatch(cc, validationBatch(cfg, fault.NodeFailure, cc.Runs))
		RunBatch(cc, validationBatch(cfg, fault.LinkFailure, cc.Runs))
	})
	lines := strings.Split(strings.TrimSuffix(log, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d records, want 8", len(lines))
	}
	var rec obs.RunRecord
	if err := json.Unmarshal([]byte(lines[5]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Run != 1 {
		t.Errorf("second batch record 1 has run index %d", rec.Run)
	}
	if !strings.Contains(rec.Fault, "link") {
		t.Errorf("second batch record reports fault %q, want a link failure", rec.Fault)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return string(b)
}
