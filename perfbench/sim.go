package main

import (
	"fmt"
	"sort"
	"strings"

	"flashfc"
)

// simCounts is what one run simulated, reduced to exact numbers. A change
// that only makes the host faster leaves every field identical; any
// difference means the change altered what is modelled.
type simCounts struct {
	Events uint64
	// Recovery is the simulated containment time (PhaseTimes.Total); 0 on
	// runs without a fault.
	Recovery flashfc.Time
	// Verify counts the §5.2 readback's outcomes (zero without a readback).
	Verify verifyCounts
	// Counters is the run's whole machine-wide counter snapshot.
	Counters map[string]uint64
}

type verifyCounts struct {
	Lines, Correct, Incoherent, Inaccessible int
}

func countsOf(events uint64, recovery flashfc.Time, v *flashfc.VerifyResult, snap *flashfc.MetricsSnapshot) simCounts {
	c := simCounts{Events: events, Recovery: recovery}
	if v != nil {
		c.Verify = verifyCounts{v.LinesChecked, v.CorrectData, v.Incoherent, v.InaccessibleOK}
	}
	if snap != nil {
		c.Counters = snap.Counters
	}
	return c
}

// diff returns nil when a and b are identical, else an error naming the
// first differing field.
func diff(a, b simCounts) error {
	switch {
	case a.Events != b.Events:
		return fmt.Errorf("sim.events_fired %d != %d", a.Events, b.Events)
	case a.Recovery != b.Recovery:
		return fmt.Errorf("containment time %v != %v", a.Recovery, b.Recovery)
	case a.Verify != b.Verify:
		return fmt.Errorf("verify counts %+v != %+v", a.Verify, b.Verify)
	}
	names := map[string]bool{}
	for k := range a.Counters {
		names[k] = true
	}
	for k := range b.Counters {
		names[k] = true
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		va, oka := a.Counters[k]
		vb, okb := b.Counters[k]
		if va != vb || oka != okb {
			return fmt.Errorf("counter %s %d != %d", k, va, vb)
		}
	}
	return nil
}

// counter returns a named counter, or the sum of every lane's counter for
// the interconnect totals the machine only keeps per lane.
func (c simCounts) counter(name string) uint64 {
	if v, ok := c.Counters[name]; ok {
		return v
	}
	prefix, suffix, found := strings.Cut(name, ".")
	if !found || prefix != "interconnect" {
		return 0
	}
	var sum uint64
	for k, v := range c.Counters {
		if strings.HasPrefix(k, "interconnect.lane.") && strings.HasSuffix(k, "."+suffix) {
			sum += v
		}
	}
	return sum
}
