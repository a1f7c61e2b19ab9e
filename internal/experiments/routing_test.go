package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"flashfc/internal/obs"
	"flashfc/internal/routing"
	"flashfc/internal/runner"
)

// fastRoutingConfig shrinks the campaign enough for the unit suite.
func fastRoutingConfig() RoutingConfig {
	cfg := DefaultRoutingConfig()
	cfg.FillLines = 64
	return cfg
}

func TestRoutingCampaignHeadToHead(t *testing.T) {
	cfg := fastRoutingConfig()
	res := RoutingCampaign(CampaignConfig{Seed: 7, Runs: 4}, cfg)
	if len(res.Scenarios) != len(DefaultRoutingScenarios()) {
		t.Fatalf("got %d scenarios", len(res.Scenarios))
	}
	for _, sc := range res.Scenarios {
		if len(sc.Cells) != len(routing.Names()) {
			t.Fatalf("%s: got %d cells, want one per strategy", sc.Spec.Name, len(sc.Cells))
		}
		for _, c := range sc.Cells {
			if c.Failed != 0 {
				t.Errorf("%s/%s: %d of %d runs failed", sc.Spec.Name, c.Strategy, c.Failed, c.Runs)
			}
			if c.Deadlocks != 0 {
				t.Errorf("%s/%s: %d runs left a dependency cycle installed", sc.Spec.Name, c.Strategy, c.Deadlocks)
			}
			if c.RecoveryP50 <= 0 {
				t.Errorf("%s/%s: no recovery time measured", sc.Spec.Name, c.Strategy)
			}
			if c.ThroughputP50 <= 0 {
				t.Errorf("%s/%s: no post-recovery throughput measured", sc.Spec.Name, c.Strategy)
			}
		}
	}
}

// TestRoutingRunsArePaired verifies the head-to-head contract: at the same
// run seed, every strategy faces the identical fault set.
func TestRoutingRunsArePaired(t *testing.T) {
	cfg := fastRoutingConfig()
	ws := WarmupValidation(cfg.ValidationConfig, WarmSeed(3))
	spec := RoutingScenarioSpec{Name: "multi-link", Links: 2}
	seed := runSeed(3, runner.StreamRouting, 1)
	var faults [][]string
	for _, name := range routing.Names() {
		r := RoutingFromWarm(ws, name, spec, seed)
		var fs []string
		for _, f := range r.Faults {
			fs = append(fs, f.String())
		}
		faults = append(faults, fs)
	}
	for i := 1; i < len(faults); i++ {
		if !reflect.DeepEqual(faults[0], faults[i]) {
			t.Fatalf("strategies %s and %s drew different faults: %v vs %v",
				routing.Names()[0], routing.Names()[i], faults[0], faults[i])
		}
	}
}

// TestRoutingCampaignDeterministic pins the bit-identical contract across
// worker counts and warm-start modes.
func TestRoutingCampaignDeterministic(t *testing.T) {
	cfg := fastRoutingConfig()
	cfg.Scenarios = []RoutingScenarioSpec{{Name: "single-link", Links: 1}}
	base := CampaignConfig{Seed: 5, Runs: 2}

	ref := RoutingCampaign(base, cfg)

	workers := base
	workers.Workers = 3
	cold := base
	cold.WarmStart = WarmStartOff

	for label, cc := range map[string]CampaignConfig{"workers=3": workers, "warmstart=off": cold} {
		got := RoutingCampaign(cc, cfg)
		if !reflect.DeepEqual(ref.Scenarios, got.Scenarios) {
			t.Fatalf("%s changed the campaign result:\nref %+v\ngot %+v", label, ref.Scenarios, got.Scenarios)
		}
	}
}

// TestRoutingStrategyDiffers sanity-checks that the alternatives are not the
// paper strategy in disguise: on a single dead link, incremental must charge
// fewer reprogrammed entries, which surfaces as a shorter P3.
func TestRoutingStrategyDiffers(t *testing.T) {
	cfg := fastRoutingConfig()
	ws := WarmupValidation(cfg.ValidationConfig, WarmSeed(9))
	spec := RoutingScenarioSpec{Name: "single-link", Links: 1}
	seed := runSeed(9, runner.StreamRouting, 0)
	paper := RoutingFromWarm(ws, "paper", spec, seed)
	incr := RoutingFromWarm(ws, "incremental", spec, seed)
	if !paper.Recovered || !incr.Recovered {
		t.Fatalf("runs did not recover: paper=%v incremental=%v", paper.Recovered, incr.Recovered)
	}
	if incr.P3 >= paper.P3 {
		t.Errorf("incremental P3 %v not below paper's %v", incr.P3, paper.P3)
	}
}

// TestRoutingRunLog pins routing observability: one record per run of
// every (scenario, strategy) batch, a failing record for any run that did
// not recover, verify or keep its tables acyclic, and a stream that is
// byte-identical at 1 vs 8 workers.
func TestRoutingRunLog(t *testing.T) {
	cfg := fastRoutingConfig()
	cc := CampaignConfig{Seed: 7, Runs: 2, Workers: 1}
	campaign := func(cc CampaignConfig) { RoutingCampaign(cc, cfg) }
	want := observed(t, cc, campaign)
	lines := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	if n := cc.Runs * len(DefaultRoutingScenarios()) * len(routing.Names()); len(lines) != n {
		t.Fatalf("got %d records, want %d", len(lines), n)
	}
	for n, line := range lines {
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if rec.Run != n%cc.Runs || rec.Outcome != obs.OutcomePass || rec.ContainmentNS <= 0 ||
			rec.Events == 0 || rec.Fault == "" {
			t.Errorf("record %d: %+v", n, rec)
		}
	}
	cc.Workers = 8
	if got := observed(t, cc, campaign); got != want {
		t.Errorf("routing run log differs between 1 and 8 workers")
	}
}
