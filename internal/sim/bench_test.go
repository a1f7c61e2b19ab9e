package sim

import "testing"

// The timer pool recycles event records across firings, and AfterCall takes
// pointer-shaped arguments precisely so that the schedule→fire→release cycle
// touches the heap zero times in steady state. testing.AllocsPerRun makes
// that a failing benchmark, not a trend to eyeball: any regression (a
// closure sneaking back in, a pool leak, a drain-buffer reallocation) trips
// the guard immediately.

func BenchmarkTimerPoolPath(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	// Warm the pool and the wheel-slot/drain capacities.
	for i := 0; i < 256; i++ {
		e.After(Time(i%7)*10, fn)
		e.RunUntil(e.Now() + 100)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.After(100, fn)
		e.RunUntil(e.Now() + 200)
	}); allocs != 0 {
		b.Fatalf("timer pool path allocates %.2f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(100, fn)
		e.RunUntil(e.Now() + 200)
	}
}

func BenchmarkTimerPoolCallPath(b *testing.B) {
	e := NewEngine(1)
	var fired uint64
	cb := Callback(func(a1, a2 any, u uint64) { fired += u })
	arg := &struct{ x int }{}
	for i := 0; i < 256; i++ {
		e.AfterCall(Time(i%7)*10, cb, arg, nil, 1)
		e.RunUntil(e.Now() + 100)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.AfterCall(100, cb, arg, nil, 1)
		e.RunUntil(e.Now() + 200)
	}); allocs != 0 {
		b.Fatalf("AfterCall path allocates %.2f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(100, cb, arg, nil, 1)
		e.RunUntil(e.Now() + 200)
	}
	if fired == 0 {
		b.Fatal("callback never ran")
	}
}

// Cancelling a pooled timer must also be free: Timer is a value, and Cancel
// only flips a flag on the still-resident record.
func BenchmarkTimerCancelPath(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 256; i++ {
		tm := e.After(50, fn)
		tm.Cancel()
		e.RunUntil(e.Now() + 100)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		tm := e.After(50, fn)
		tm.Cancel()
		e.RunUntil(e.Now() + 100)
	}); allocs != 0 {
		b.Fatalf("timer cancel path allocates %.2f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.After(50, fn)
		tm.Cancel()
		e.RunUntil(e.Now() + 100)
	}
}

// The partitioned barrier path must be allocation-free in steady state as
// well: every window's cross-region messages are sorted in the reused merge
// buffer and inserted through the pooled AtCall path, and the per-window
// fired counters are reused. The guard covers the one-worker window path
// and the global interleave; the parallel path's goroutine fan-out is not
// part of the claim.
func BenchmarkPartitionedBarrierMerge(b *testing.B) {
	const L = Time(100)
	// hopRing seeds tokens that hop to the next region exactly one
	// lookahead after they fire, so every window fires, sends and merges.
	hopRing := func(global bool) *Partitioned {
		const regions = 4
		p := NewPartitioned(1, regions, L, 1)
		if global {
			p.SetGlobalFrom(0)
		}
		var hop Callback
		hop = func(_, _ any, u uint64) {
			src := int(u)
			dst := (src + 1) % regions
			p.Send(src, dst, p.Region(src).Now()+L, nil, hop, nil, nil, uint64(dst))
		}
		for i := 0; i < regions; i++ {
			for k := 0; k < 8; k++ {
				p.Region(i).AtCall(Time(1+11*k+3*i), hop, nil, nil, uint64(i))
			}
		}
		return p
	}
	for _, global := range []bool{false, true} {
		p := hopRing(global)
		step := func() { p.RunUntil(p.Now() + 4*L) }
		for i := 0; i < 1024; i++ { // warm the pools, wheel slots and buffers
			step()
		}
		merged := p.Merged()
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			b.Fatalf("barrier merge (global %v) allocates %.2f allocs/op, want 0", global, allocs)
		}
		if p.Merged() == merged {
			b.Fatalf("global %v: no cross-region message merged", global)
		}
	}
	p := hopRing(false)
	for i := 0; i < 1024; i++ {
		p.RunUntil(p.Now() + 4*L)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RunUntil(p.Now() + 4*L)
	}
}
