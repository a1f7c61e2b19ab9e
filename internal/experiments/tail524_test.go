package experiments

import (
	"testing"

	"flashfc/internal/fault"
)

// TestTransientLinkTail524Contained pins tail run 524 of the TransientLink
// scenario at base seed 1 (-table tail -full -seed 1), which exposed a
// recall/exclusive-grant race: a RECALL on the request lane overtook the
// owner's DATA_EX upgrade grant on the reply lane, the owner answered with
// its stale shared copy, and its committed store later vanished in the P4
// flush as a "stale" writeback — a containment miss with no packet lost.
// handleRecall now merges the recall into the outstanding exclusive miss
// before trusting a resident copy; this run must verify clean forever.
func TestTransientLinkTail524Contained(t *testing.T) {
	cfg := DefaultTailConfig()
	ws := WarmupValidation(cfg.ValidationConfig, WarmSeed(1))
	runSeed := tailRunSeed(1, fault.TransientLink, 524)
	r := ValidationFromWarm(ws, fault.TransientLink, runSeed, nil)
	if !r.OK() {
		t.Fatalf("tail run 524 (seed %d) not contained: recovered=%v verify=%v",
			runSeed, r.Recovered, r.Verify)
	}
}
