package experiments

import (
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/sim"
	"flashfc/internal/workload"
)

// MAGIC recycles message envelopes and MSHRs through per-controller free
// lists. These tests drive the two paths where a message outlives its
// normal round trip — a packet the reliable fabric retains for
// retransmission, and an exclusive grant orphaned by drain mode — on a
// partitioned machine with four region workers, and hold the result to the
// §5.2 verify contract. A recycled envelope still in use either panics
// (MAGIC poisons released messages) or shows up as wrong or over-marked
// lines in the readback.

// poolMachine builds a 16-node partitioned machine running the region-safe
// fill workload, advanced until half the accesses have completed.
func poolMachine(t *testing.T, seed int64, reliable bool) *machine.Machine {
	t.Helper()
	mc := machine.DefaultConfig(16)
	mc.Seed = seed
	mc.MemBytes = 64 << 10
	mc.L2Bytes = 16 << 10
	mc.Partitions = 4
	mc.ParallelWindows = true
	mc.ReliableInterconnect = reliable
	m := machine.New(mc)
	pf := workload.NewPartitionFill(m)
	pf.Start()
	for pf.Remaining() > pf.Total()/2 {
		m.Advance(m.Now() + 10*sim.Microsecond)
	}
	return m
}

// verifyContained finishes recovery and holds the machine to the §5.2
// contract.
func verifyContained(t *testing.T, m *machine.Machine) {
	t.Helper()
	if !m.RunUntilRecovered(m.Now() + sim.Second) {
		t.Fatal("recovery incomplete")
	}
	m.Advance(m.Now() + 5*sim.Millisecond) // retransmissions and aborted reissues
	if v := m.VerifyMemory(0, 1); !v.OK() {
		t.Fatalf("verify: %v", v)
	}
}

func TestPooledEnvelopesSurviveReliableRetransmit(t *testing.T) {
	m := poolMachine(t, 2, true)
	// Failing a link at the middle of the mesh truncates the packet on
	// the wire, which is delivered and also retained, and black-holes the
	// packets that follow. The reliable fabric resends every retained
	// packet after recovery, in a fresh packet carrying the same message.
	link := m.Topo.Adjacency(5)[m.Topo.PortTo(5, 6)].Link
	m.Inject(fault.Fault{Type: fault.LinkFailure, Link: link})
	retained := 0
	for !m.Recovered() && m.Now() < sim.Second {
		retained = max(retained, m.Net.RetainedLost())
		m.Advance(m.Now() + 10*sim.Microsecond)
	}
	if retained == 0 || m.Net.Stats.DeliveredTrunc == 0 {
		t.Fatalf("retained %d packets, delivered %d truncated; the test no longer exercises retransmission",
			retained, m.Net.Stats.DeliveredTrunc)
	}
	t.Logf("retained=%d truncated=%d", retained, m.Net.Stats.DeliveredTrunc)
	verifyContained(t, m)
	if n := m.Net.RetainedLost(); n != 0 {
		t.Fatalf("%d packets still retained after recovery", n)
	}
}

func TestPooledEnvelopesSurviveOrphanedGrants(t *testing.T) {
	m := poolMachine(t, 5, false)
	// Recovery puts every controller in drain mode while exclusive grants
	// are still in flight; each one that lands is stashed as an orphan and
	// returned home by the P4 flush.
	m.Inject(fault.Fault{Type: fault.FalseAlarm, Node: 6})
	orphans := 0
	for !m.Recovered() && m.Now() < sim.Second {
		n := 0
		for _, node := range m.Nodes {
			n += len(node.Ctrl.Orphans())
		}
		orphans = max(orphans, n)
		m.Advance(m.Now() + 10*sim.Microsecond)
	}
	if orphans == 0 {
		t.Fatal("recovery orphaned no exclusive grant; the test no longer exercises the orphan stash")
	}
	t.Logf("orphans=%d", orphans)
	verifyContained(t, m)
}
