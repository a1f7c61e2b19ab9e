package machine

import (
	"reflect"
	"slices"
	"testing"

	"flashfc/internal/core"
	"flashfc/internal/fault"
	"flashfc/internal/routing"
	"flashfc/internal/sim"
	"flashfc/internal/topology"
)

// P3's table repair is computed once per converged view and shared by every
// agent of the machine. These tests hold the installed tables to a fresh,
// unshared repair of the same view on a partitioned 64-node machine, under
// every routing strategy.

var repairStrategies = []string{"paper", "incremental", "adaptive"}

func sharedRepairConfig(strategy string) Config {
	cfg := DefaultConfig(64) // 8x8 mesh
	cfg.Seed = 53
	cfg.MemBytes = 16 << 10
	cfg.L2Bytes = 8 << 10
	cfg.Partitions = 4
	cfg.Routing = strategy
	return cfg
}

// freshRepair computes the strategy's tables for v and root on private
// copies, bypassing the machine's shared repair.
func freshRepair(t *testing.T, strategy string, v *topology.View, root int) topology.Tables {
	t.Helper()
	vc := v.Clone()
	bft := vc.BFS(root)
	if strategy == "paper" {
		return topology.UpDownTables(vc, bft)
	}
	strat, err := routing.Get(strategy)
	if err != nil {
		t.Fatal(err)
	}
	return strat.RepairTables(vc, bft).Tables
}

// checkInstalledRepair requires every survivor to hold the same converged
// view, and every router live in it — survivors' own and the dead nodes'
// routers the root reprograms — to carry the fresh repair's row.
func checkInstalledRepair(t *testing.T, m *Machine, strategy string) {
	t.Helper()
	survivors := m.Survivors()
	v, bft := m.Nodes[survivors[0]].Agent.View()
	if v == nil {
		t.Fatalf("node %d has no converged view", survivors[0])
	}
	for _, s := range survivors[1:] {
		vs, bs := m.Nodes[s].Agent.View()
		if vs == nil || !slices.Equal(vs.RouterUp, v.RouterUp) ||
			!slices.Equal(vs.LinkUp, v.LinkUp) || bs.Root != bft.Root {
			t.Fatalf("node %d did not converge on node %d's view", s, survivors[0])
		}
	}
	want := freshRepair(t, strategy, v, bft.Root)
	for r, up := range v.RouterUp {
		if !up {
			continue
		}
		if got := m.Net.RouterTable(r); !reflect.DeepEqual(got, want[r]) {
			t.Fatalf("router %d: installed row differs from a fresh repair\n got %v\nwant %v", r, got, want[r])
		}
	}
	if !m.RoutingAcyclic() {
		t.Fatal("installed tables can deadlock")
	}
}

func TestSharedRepairMatchesFreshRepair(t *testing.T) {
	for _, strategy := range repairStrategies {
		t.Run(strategy, func(t *testing.T) {
			m := New(sharedRepairConfig(strategy))
			// A dead router (its node is cut off) and a dead node whose
			// router the elected root must reprogram.
			m.InjectAll([]fault.Fault{
				{Type: fault.RouterFailure, Router: 27},
				{Type: fault.NodeFailure, Node: 36},
			})
			m.Nodes[0].CPU.Submit(readOp(m, uint64(m.Space.Base(27))+0x100))
			m.Nodes[63].CPU.Submit(readOp(m, uint64(m.Space.Base(36))+0x100))
			if !m.RunUntilRecovered(m.Now() + 5*sim.Second) {
				t.Fatalf("recovery incomplete: %d/%d", len(m.reports), len(m.expecting))
			}
			checkInstalledRepair(t, m, strategy)
			if res := m.VerifyMemory(0, 1); !res.OK() {
				t.Fatalf("verify: %v", res)
			}
		})
	}
}

// A second fault while the first recovery is in P4 restarts recovery on a
// different view, so the machine's one shared entry serves two views in
// turn. The tables installed last must still be the fresh repair of the
// final view, and the §5.2 contract must hold.
func TestSharedRepairAcrossEpochRestart(t *testing.T) {
	for _, strategy := range repairStrategies {
		t.Run(strategy, func(t *testing.T) {
			cfg := sharedRepairConfig(strategy)
			// Fault injection switches the machine to the global
			// interleave, so the hook never runs concurrently.
			var (
				m     *Machine
				inP4  bool
				views [][]bool // distinct views P4 was entered with
			)
			cfg.Recovery.OnPhase = func(node int, p core.Phase) {
				if p != core.PhaseCoherence {
					return
				}
				v, _ := m.Nodes[node].Agent.View()
				inP4 = true
				key := slices.Concat(v.RouterUp, v.LinkUp)
				if !slices.ContainsFunc(views, func(k []bool) bool { return slices.Equal(k, key) }) {
					views = append(views, key)
				}
			}
			m = New(cfg)
			m.Inject(fault.Fault{Type: fault.NodeFailure, Node: 27})
			m.Nodes[0].CPU.Submit(readOp(m, uint64(m.Space.Base(27))+0x100))
			for !inP4 && m.Now() < sim.Second {
				m.Advance(m.Now() + 10*sim.Microsecond)
			}
			if !inP4 || m.Recovered() {
				t.Fatalf("first recovery never caught in P4 (recovered=%v)", m.Recovered())
			}
			m.Inject(fault.Fault{Type: fault.RouterFailure, Router: 44})
			if !m.RunUntilRecovered(m.Now() + 5*sim.Second) {
				t.Fatalf("recovery incomplete: %d/%d", len(m.reports), len(m.expecting))
			}
			if len(views) < 2 {
				t.Fatalf("P4 entered with %d distinct views, want 2", len(views))
			}
			checkInstalledRepair(t, m, strategy)
			m.Advance(m.Now() + 5*sim.Millisecond)
			if res := m.VerifyMemory(0, 1); !res.OK() {
				t.Fatalf("verify: %v", res)
			}
		})
	}
}
