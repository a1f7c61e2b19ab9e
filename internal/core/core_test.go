package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flashfc/internal/topology"
)

// Unit tests for the recovery algorithm's pure parts: state merging, the
// termination bound, and barrier topology. Whole-algorithm behaviour is
// covered by the machine and experiments integration tests.

func TestMergeTriOrdering(t *testing.T) {
	cases := []struct{ a, b, want tri }{
		{triUnknown, triUnknown, triUnknown},
		{triUnknown, triUp, triUp},
		{triUp, triUnknown, triUp},
		{triUp, triDown, triDown},
		{triDown, triUp, triDown},
		{triDown, triUnknown, triDown},
		{triUp, triUp, triUp},
	}
	for _, c := range cases {
		if got := mergeTri(c.a, c.b); got != c.want {
			t.Errorf("mergeTri(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func randomState(rng *rand.Rand, nodes, links int) *sysState {
	s := newSysState(nodes, links)
	fill := func(a []tri) {
		for i := range a {
			a[i] = tri(rng.Intn(3))
		}
	}
	fill(s.Nodes)
	fill(s.Routers)
	fill(s.Links)
	return s
}

func statesEqual(a, b *sysState) bool {
	eq := func(x, y []tri) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eq(a.Nodes, b.Nodes) && eq(a.Routers, b.Routers) && eq(a.Links, b.Links)
}

// Property: merge is commutative — the gossip outcome is independent of
// message arrival order, which the dissemination phase depends on.
func TestQuickMergeCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomState(rng, 8, 10)
		b := randomState(rng, 8, 10)
		ab := a.clone()
		ab.merge(b)
		ba := b.clone()
		ba.merge(a)
		return statesEqual(ab, ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: merge is associative.
func TestQuickMergeAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomState(rng, 8, 10)
		b := randomState(rng, 8, 10)
		c := randomState(rng, 8, 10)
		abc1 := a.clone()
		abc1.merge(b)
		abc1.merge(c)
		bc := b.clone()
		bc.merge(c)
		abc2 := a.clone()
		abc2.merge(bc)
		return statesEqual(abc1, abc2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: merge is idempotent and reports no change on self-merge.
func TestQuickMergeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomState(rng, 8, 10)
		b := a.clone()
		if b.merge(a) {
			return false // self-merge must not change anything
		}
		return statesEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: merge monotonicity — merging never resurrects a down component.
func TestQuickMergeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomState(rng, 8, 10)
		b := randomState(rng, 8, 10)
		before := a.clone()
		a.merge(b)
		for i := range before.Nodes {
			if before.Nodes[i] == triDown && a.Nodes[i] != triDown {
				return false
			}
		}
		for i := range before.Links {
			if before.Links[i] == triDown && a.Links[i] != triDown {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSysStateWordsAndView(t *testing.T) {
	s := newSysState(8, 10)
	if s.words() != 8+8+10+4 {
		t.Fatalf("words = %d", s.words())
	}
	topo := topology.NewMesh(4, 2)
	for i := range s.Routers {
		s.Routers[i] = triUp
	}
	for l := range s.Links {
		s.Links[l] = triUp
	}
	s.Routers[3] = triDown
	s.Links[0] = triUnknown // unknown is treated as down in views
	v := s.view(topo)
	if v.RouterUp[3] || v.LinkUp[0] {
		t.Fatal("view should treat down/unknown as unavailable")
	}
	if !v.RouterUp[0] {
		t.Fatal("up router lost in view")
	}
	s.Nodes[2] = triUp
	s.Nodes[5] = triUp
	fn := s.functioningNodes()
	if len(fn) != 2 || fn[0] != 2 || fn[1] != 5 {
		t.Fatalf("functioningNodes = %v", fn)
	}
}

func TestRecMsgHelpers(t *testing.T) {
	st := newSysState(4, 4)
	m := &recMsg{Kind: kState, State: st, Round: 3}
	if m.bytes() <= 16 {
		t.Fatal("state message should be larger than a control message")
	}
	for _, k := range []msgKind{kPing, kPong, kState, kBarrierUp, kBarrierDown, kFlushDone, msgKind(99)} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	if (&recMsg{Kind: kPing}).bytes() != 16 {
		t.Fatal("control message size wrong")
	}
	if m.String() == "" {
		t.Fatal("empty message string")
	}
}

func TestReverseRoute(t *testing.T) {
	if reverseRoute(nil) != nil {
		t.Fatal("nil route should stay nil")
	}
	got := reverseRoute([]int{1, 2, 3})
	if len(got) != 3 || got[0] != 3 || got[2] != 1 {
		t.Fatalf("reverseRoute = %v", got)
	}
}

func TestPhaseStrings(t *testing.T) {
	for p := PhaseIdle; p <= PhaseShutdown+1; p++ {
		if p.String() == "" {
			t.Fatal("empty phase name")
		}
	}
}

// maxInto is mergeTri applied element-wise, over every pair of values.
func TestMaxIntoMatchesMergeTri(t *testing.T) {
	for a := triUnknown; a <= triDown; a++ {
		for b := triUnknown; b <= triDown; b++ {
			dst := []tri{a}
			changed := maxInto(dst, []tri{b})
			if want := mergeTri(a, b); dst[0] != want || changed != (want != a) {
				t.Errorf("maxInto(%d, %d) = %d changed=%v, want %d", a, b, dst[0], changed, want)
			}
		}
	}
}
