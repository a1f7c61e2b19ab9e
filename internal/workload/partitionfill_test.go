package workload

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/machine"
	"flashfc/internal/proc"
)

// fillOp is the part of a fill access that defines the program.
type fillOp struct {
	Kind proc.OpKind
	Addr coherence.Addr
}

// referenceFillProgram is the original per-node generator: one fresh
// rand.NewSource per node. PartitionFill reseeds one shared rand.Rand
// instead, and must reproduce this program exactly.
func referenceFillProgram(f *PartitionFill) [][]fillOp {
	m := f.M
	nodes := m.Cfg.Nodes
	lines := int64(m.Cfg.MemBytes / 128)
	out := make([][]fillOp, nodes)
	for id := range m.Nodes {
		rng := rand.New(rand.NewSource(m.Cfg.Seed ^ (int64(id)+1)*0x5851f42d4c957f2d))
		for i := 0; i < f.OpsPerNode; i++ {
			target := id
			if rng.Float64() >= f.LocalFraction {
				target = rng.Intn(nodes)
			}
			op := fillOp{Kind: proc.OpRead, Addr: m.Space.Base(target) + coherence.Addr(rng.Int63n(lines)*128)}
			if rng.Float64() < f.ExclusiveFraction {
				op.Kind = proc.OpReadExclusive
			}
			out[id] = append(out[id], op)
		}
	}
	return out
}

func newFillMachine(seed int64, nodes int) *machine.Machine {
	cfg := machine.DefaultConfig(nodes)
	cfg.Seed = seed
	cfg.MemBytes = 64 << 10
	cfg.L2Bytes = 16 << 10
	cfg.Partitions = 1
	return machine.New(cfg)
}

// TestPartitionFillProgramPinned pins every node's op list (kind, addr) to
// the fresh-source-per-node reference, across seeds and mixes.
func TestPartitionFillProgramPinned(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, -3} {
		f := NewPartitionFill(newFillMachine(seed, 16))
		if seed == 7 {
			f.LocalFraction, f.ExclusiveFraction = 0.3, 0.8
		}
		got := make([][]fillOp, f.M.Cfg.Nodes)
		f.program(func(id int, op proc.Op) {
			got[id] = append(got[id], fillOp{Kind: op.Kind, Addr: op.Addr})
		})
		want := referenceFillProgram(f)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: fill program diverged from the per-node-source reference", seed)
		}
	}
}

// TestPartitionFillStartAllocs bounds Start's allocations by those of
// submitting the identical, pre-generated ops on an identical machine:
// generating the program may add a constant (the shared rand.Rand and the
// submit closure), never one source per node or one closure per access.
func TestPartitionFillStartAllocs(t *testing.T) {
	const seed, nodes = 3, 64
	mallocs := func(fn func()) uint64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		return b.Mallocs - a.Mallocs
	}

	ref := NewPartitionFill(newFillMachine(seed, nodes))
	ops := make([][]proc.Op, nodes)
	ref.program(func(id int, op proc.Op) { ops[id] = append(ops[id], op) })
	submitted := mallocs(func() {
		for id, list := range ops {
			for _, op := range list {
				ref.M.Nodes[id].CPU.Submit(op)
			}
		}
	})

	f := NewPartitionFill(newFillMachine(seed, nodes))
	started := mallocs(f.Start)
	// Slack well below one allocation per node absorbs map-growth jitter.
	if slack := uint64(nodes / 4); started > submitted+slack {
		t.Fatalf("Start made %d allocations; submitting the same ops takes %d (+%d slack): per-node or per-access garbage is back",
			started, submitted, slack)
	}
	if f.Total() != int64(nodes*f.OpsPerNode) || f.Remaining() != f.Total() {
		t.Fatalf("Start accounting: total %d remaining %d", f.Total(), f.Remaining())
	}
}
