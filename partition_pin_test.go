package flashfc_test

import (
	"testing"

	"flashfc"
)

// TestPartitionedCampaignBarrierPin pins the partitioned engine's logical
// window accounting on the 16-node node-fault campaign at seed 7
// (`flashsim -nodes 16 -fault node -runs 4 -seed 7 -partitions 1`). Most of
// its windows are empty and the engine fast-forwards over them, but
// sim.barriers and every partition's lookahead_stalls still count each
// skipped window, exactly as window-by-window execution does.
func TestPartitionedCampaignBarrierPin(t *testing.T) {
	cfg := flashfc.DefaultValidationConfig()
	cfg.Nodes = 16
	cfg.Partitions = 1
	out := flashfc.RunCampaign(flashfc.CampaignConfig{Seed: 7, Runs: 4, Workers: 1, Metrics: true},
		flashfc.ValidationCampaign{Config: cfg, Fault: flashfc.NodeFailure})
	for i, r := range out.Runs {
		if r.Err != nil || !r.Value.OK() {
			t.Fatalf("run %d failed: %v", i, r.Err)
		}
	}
	want := map[string]uint64{
		"sim.events_fired":                  1542295,
		"sim.barriers":                      9822184,
		"sim.cross_region_merged":           371369,
		"sim.partition.00.lookahead_stalls": 9759220,
		"sim.partition.01.lookahead_stalls": 9742870,
		"sim.partition.02.lookahead_stalls": 9770705,
		"sim.partition.03.lookahead_stalls": 9800478,
	}
	for name, v := range want {
		if got := out.Metrics.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}
