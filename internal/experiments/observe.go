package experiments

import (
	"strings"

	"flashfc/internal/obs"
	"flashfc/internal/runner"
)

// Observability plumbing: RunBatch reduces every completed run to one
// obs.RunRecord and feeds it to the campaign's Sink. Records flow in
// completion order — the obs sinks decide whether they need index order —
// and carry the run's derived seed, so any row of a run log can be
// replayed exactly (flashsim -run-seed, ReplayTailExemplars).

// recordOf reduces one run to its observability record, extracting the
// outcome fields the known result types carry. seed must be the run's
// derived seed — the value that reproduces it. A crashed run is a "panic"
// record with the panic as its note and no run payload.
func recordOf[T any](i int, seed int64, r runner.Result[T]) obs.RunRecord {
	rec := obs.RunRecord{
		Run:     i,
		Seed:    seed,
		Outcome: obs.OutcomePass,
		Events:  r.Events,
		WallNS:  r.Wall.Nanoseconds(),
		Worker:  r.Worker,
	}
	if r.Err != nil {
		rec.Outcome = obs.OutcomePanic
		rec.Note = r.Err.Error()
		return rec
	}
	fail := func(note string) {
		rec.Outcome = obs.OutcomeFail
		rec.Note = note
	}
	switch v := any(r.Value).(type) {
	case *ValidationResult:
		rec.Fault = v.Fault.String()
		rec.ContainmentNS = int64(v.Phases.Total)
		rec.AffectedNodes = v.AffectedNodes
		if !v.OK() {
			fail(v.Note)
		}
	case *EndToEndResult:
		rec.Fault = v.Fault.String()
		rec.ContainmentNS = int64(v.HW + v.OS)
		if !v.OK() {
			fail(v.Note)
		}
	case ScalingPoint:
		rec.ContainmentNS = int64(v.Phases.Total)
		if !v.OK {
			fail("")
		}
	case Fig57Point:
		rec.ContainmentNS = int64(v.HWOS)
		if !v.OK {
			fail("")
		}
	case *RoutingRun:
		faults := make([]string, len(v.Faults))
		for k, f := range v.Faults {
			faults[k] = f.String()
		}
		rec.Fault = strings.Join(faults, ", ")
		rec.ContainmentNS = int64(v.Total)
		switch {
		case !v.Recovered:
			fail("recovery incomplete")
		case !v.OK:
			fail("verify failed")
		case !v.Acyclic:
			fail("cyclic tables")
		}
	}
	return rec
}

// eventsOf extracts the simulated-event count the known result types carry.
func eventsOf(v any) uint64 {
	switch r := v.(type) {
	case *ValidationResult:
		if r != nil {
			return r.Events
		}
	case *EndToEndResult:
		if r != nil {
			return r.Events
		}
	case *RoutingRun:
		if r != nil {
			return r.Events
		}
	case ScalingPoint:
		return r.Events
	}
	return 0
}
