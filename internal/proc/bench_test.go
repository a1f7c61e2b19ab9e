package proc

import (
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/magic"
)

// A remote read miss is the protocol's steady-state round trip, and the
// §5.2 readback is tens of thousands of them: the CPU issues the read,
// MAGIC sends a GET to the home, the home answers DATA_SH, the reader
// installs the line (evicting the oldest) and the CPU retires the
// operation. Pooled envelopes, MSHRs, operation records and reused cache
// lines make the whole trip allocation-free once the directory knows every
// line, and this guard keeps it that way: any allocation creeping back into
// the path fails the benchmark outright.
func BenchmarkRemoteReadRoundTrip(b *testing.B) {
	e, cpu, ctrl := newCPU(b)
	// Cycle through more remote lines than the reader's cache holds, so
	// every read misses and every install evicts.
	lines := 2 * ctrl.Cache.CapacityLines()
	home := ctrl.Space.Base(1)
	done := 0
	complete := func(r magic.Result) {
		if r.Err != nil {
			b.Fatalf("remote read failed: %v", r.Err)
		}
		done++
	}
	next := 0
	read := func() {
		addr := home + coherence.Addr(next*128)
		next = (next + 1) % lines
		cpu.Submit(Op{Kind: OpRead, Addr: addr, Done: complete})
		e.Run()
	}
	// Warm the home directory (one entry per line), the free lists, the
	// event pool and the wheel slots.
	for i := 0; i < 4*lines; i++ {
		read()
	}
	if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
		b.Fatalf("remote read round trip allocates %.2f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
	if done == 0 || ctrl.Stats.HandlersRun == 0 {
		b.Fatal("no remote read completed")
	}
}
