package core

import (
	"reflect"
	"testing"

	"flashfc/internal/routing"
	"flashfc/internal/topology"
)

// countingStrategy counts the repairs it computes.
type countingStrategy struct {
	routing.Strategy
	calls int
}

func (s *countingStrategy) RepairTables(v *topology.View, bft *topology.BFT) routing.Repair {
	s.calls++
	return s.Strategy.RepairTables(v, bft)
}

// The shared repair is reused while the view's contents and the root are
// unchanged, and recomputed when a router, a link or the root differs.
func TestSharedRepairCacheKey(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	strat := &countingStrategy{Strategy: routing.Incremental}
	c := &RepairCache{}
	base := topology.NewView(topo)
	base.FailRouter(5)
	lookup := func(v *topology.View, root int) routing.Repair {
		return c.Repair(strat, v, v.BFS(root))
	}
	expect := func(step string, calls int) {
		t.Helper()
		if strat.calls != calls {
			t.Fatalf("%s: %d repairs computed, want %d", step, strat.calls, calls)
		}
	}

	first := lookup(base, 0)
	expect("first lookup", 1)
	// Same contents in a different View, with a freshly built BFT: a hit
	// that hands back the very tables already computed.
	again := lookup(base.Clone(), 0)
	expect("equal view", 1)
	if &again.Tables[0][0] != &first.Tables[0][0] {
		t.Fatal("equal view: repair recomputed instead of shared")
	}

	// Each flip is measured against an entry holding the base view; the
	// one entry means returning to the base view recomputes too.
	router := base.Clone()
	router.RouterUp[10] = false
	lookup(router, 0)
	expect("one router flipped", 2)
	lookup(base, 0)
	expect("back to the base view", 3)

	link := base.Clone()
	link.LinkUp[topo.Adjacency(14)[0].Link] = false
	lookup(link, 0)
	expect("one link flipped", 4)
	lookup(link, 0)
	expect("link view again", 4)

	lookup(link, 1)
	expect("root changed", 5)

	// The key is a copy: mutating a caller's view after the lookup must
	// not turn a different view into a hit.
	mut := base.Clone()
	lookup(mut, 0)
	expect("base view via a new View", 6)
	mut.RouterUp[3] = false
	lookup(mut, 0)
	expect("caller's view mutated", 7)

	// A nil cache computes through the same strategy, every time, with the
	// same result as the shared entry.
	var none *RepairCache
	got := none.Repair(strat, base, base.BFS(0))
	expect("nil cache", 8)
	if !reflect.DeepEqual(got, first) {
		t.Fatal("nil cache: repair differs from the shared one")
	}
}
