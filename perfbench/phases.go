package main

import (
	"context"
	"runtime"
	"runtime/pprof"
	"time"

	"flashfc"
)

// phase is one step of a run that the traced pass times from outside, at
// the boundary between two of the benchmark's own calls into the program.
type phase int

const (
	phWarmup   phase = iota // WarmupValidation
	phFork                  // MachineFromSnapshot
	phBuild                 // NewMachine
	phPrefault              // stepping until the benchmark's OnHalfDone injects the fault
	phFill                  // stepping a fault-free fill to completion
	phRecovery              // from injection until m.Recovered(), polled between 1 ms steps
	phSettle                // after recovery until the stepping loop returns
	phVerify                // VerifyMemory
	numPhases
)

var phaseNames = [numPhases]string{"warmup", "fork", "build", "prefault", "fill", "recovery", "settle", "verify"}

func (p phase) String() string { return phaseNames[p] }

// span is one timed phase of one run, with the allocation and GC activity
// runtime.MemStats saw across it. Spans of one run share its index; set-up
// spans have run -1.
type span struct {
	run        int
	phase      phase
	start, end time.Duration // since the clock's origin
	allocs     uint64
	bytes      uint64
	gcs        uint32
}

func (s span) dur() time.Duration { return s.end - s.start }

// clock records consecutive phase spans and labels the goroutine's CPU
// profile samples with the open phase. Goroutines the program starts
// inherit the label, so partition workers are attributed too.
type clock struct {
	origin time.Time
	base   context.Context
	labels [numPhases]context.Context
	spans  []span
	run    int // index of the run being traced; -1 during set-up

	open bool
	cur  phase
	t0   time.Time
	ms   runtime.MemStats // at the open phase's start
}

func newClock() *clock {
	c := &clock{origin: time.Now(), base: context.Background(), run: -1}
	for p := range c.labels {
		c.labels[p] = pprof.WithLabels(c.base, pprof.Labels("phase", phaseNames[p]))
	}
	return c
}

// enter closes the open phase, if any, and opens p. The MemStats read
// between the two falls outside both spans.
func (c *clock) enter(p phase) {
	c.close()
	pprof.SetGoroutineLabels(c.labels[p])
	c.open, c.cur = true, p
	c.t0 = time.Now()
}

// stop closes the open phase and clears the goroutine's label.
func (c *clock) stop() {
	c.close()
	pprof.SetGoroutineLabels(c.base)
}

// recovered moves an open recovery phase on to settle once m reports
// recovery complete; replays call it between 1 ms steps.
func (c *clock) recovered(m *flashfc.Machine) {
	if c.open && c.cur == phRecovery && m.Recovered() {
		c.enter(phSettle)
	}
}

func (c *clock) close() {
	end := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if c.open {
		c.spans = append(c.spans, span{
			run:    c.run,
			phase:  c.cur,
			start:  c.t0.Sub(c.origin),
			end:    end.Sub(c.origin),
			allocs: ms.Mallocs - c.ms.Mallocs,
			bytes:  ms.TotalAlloc - c.ms.TotalAlloc,
			gcs:    ms.NumGC - c.ms.NumGC,
		})
		c.open = false
	}
	c.ms = ms
}
