package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestOwnerPackage(t *testing.T) {
	cases := map[string]string{
		"flashfc/internal/sim.(*Engine).RunUntil":                             "flashfc/internal/sim",
		"flashfc/internal/sim.(*Partitioned).runWindowParallel.func1":         "flashfc/internal/sim",
		"flashfc/internal/topology.UpDownTables":                              "flashfc/internal/topology",
		"flashfc/internal/sim.(*Channel[go.shape.*uint8]).Push":               "flashfc/internal/sim",
		"flashfc.RunCampaign[go.shape.*flashfc/internal/experiments.T].func1": "flashfc",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "internal/runtime/maps",
		"sync/atomic.(*Int64).Add":                     "sync/atomic",
		"main.measureTraced":                           "main",
		"type:.eq.flashfc/internal/coherence.Line":     "",
	}
	for sym, want := range cases {
		if got := ownerPackage(sym); got != want {
			t.Errorf("ownerPackage(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"flashfc/internal/sim":         "sim",
		"flashfc/internal/topology":    "topology",
		"flashfc/internal/workload":    "workload",
		"flashfc/internal/metrics":     bucketOther, // not a reported layer
		"flashfc/internal/experiments": bucketOther,
		"flashfc":                      bucketOther,
		"main":                         bucketOther,
		"sync":                         bucketOther,
		"":                             bucketOther,
	}
	for pkg, want := range cases {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"flashfc/internal/sim.(*Engine).RunUntil", "main.main"}, "sim"},
		{[]string{"flashfc/internal/interconnect.(*Network).deliver", "flashfc/internal/sim.(*Engine).fire"}, "interconnect"},
		// Allocation called from a layer is allocation time, not the layer's.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "flashfc/internal/magic.(*Controller).handle"}, bucketAlloc},
		// A GC assist inside an allocation is GC time.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "flashfc/internal/sim.(*Engine).At"}, bucketGC},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit"}, bucketGC},
		{[]string{"runtime.(*mspan).sweep", "runtime.(*mcentral).cacheSpan", "runtime.(*mcache).refill", "runtime.mallocgc"}, bucketGC},
		{[]string{"runtime.wbBufFlush1", "runtime.wbBufFlush", "runtime.gcWriteBarrier2", "flashfc/internal/coherence.(*Cache).Insert"}, bucketGC},
		{[]string{"runtime.memhash64", "runtime.mapaccess2_fast64", "flashfc/internal/machine.(*Oracle).ExpectedToken"}, bucketMaps},
		{[]string{"internal/runtime/maps.(*table).getWithKey", "internal/runtime/maps.(*Map).getWithKey", "runtime.mapaccess1", "flashfc/internal/magic.(*Controller).handle"}, bucketMaps},
		// Growing a map allocates: the first marker met walking out wins.
		{[]string{"runtime.mallocgc", "runtime.newarray", "runtime.mapassign_fast64", "flashfc/internal/sim.x"}, bucketAlloc},
		// Runtime helpers with no marker are remainder, not the caller's.
		{[]string{"runtime.memmove", "flashfc/internal/sim.(*Engine).RunUntil"}, bucketOther},
		// The walk stops at the first program frame.
		{[]string{"runtime.memmove", "flashfc/internal/sim.grow", "runtime.mallocgc"}, bucketOther},
		{[]string{"flashfc/internal/metrics.(*Counter).Inc"}, bucketOther},
		{nil, bucketOther},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	got := tail(xs)
	if got.Value != 90 || got.Pct != 90 || got.N != 100 || got.Beyond != 10 {
		t.Fatalf("tail of 1..100 = %+v, want p90 = 90 with 10 beyond", got)
	}
	got = tail(xs[:48]) // 100..53
	if got.Beyond != 10 || got.Value != 90 || got.Pct != 100*38.0/48 {
		t.Fatalf("tail of 48 samples = %+v, want rank 38 (value 90) with 10 beyond", got)
	}
	got = tail(xs[:20]) // the smallest count with a supported percentile
	if got.Beyond != 10 || got.Pct != 50 || got.Value != 90 {
		t.Fatalf("tail of 20 samples = %+v, want p50 = 90 with 10 beyond", got)
	}
	got = tail(xs[:19])
	if got.Beyond != 0 || got.Pct != 100 || got.Value != 100 {
		t.Fatalf("tail of 19 samples = %+v, want the maximum with 0 beyond", got)
	}
	if got := tail(nil); got.N != 0 || got.Value != 0 {
		t.Fatalf("tail of nothing = %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func sampleCounts() simCounts {
	return simCounts{
		Events:   300000,
		Recovery: 7070362,
		Verify:   verifyCounts{Lines: 32768, Correct: 30676, Incoherent: 44, Inaccessible: 2048},
		Counters: map[string]uint64{
			"sim.events_fired":                300000,
			"interconnect.lane.req.packets":   10,
			"interconnect.lane.reply.packets": 32,
			"interconnect.lane.req.flits":     20,
		},
	}
}

func TestDiff(t *testing.T) {
	a := sampleCounts()
	if err := diff(a, sampleCounts()); err != nil {
		t.Fatalf("identical counts differ: %v", err)
	}
	mutations := map[string]func(c *simCounts){
		"events":      func(c *simCounts) { c.Events++ },
		"containment": func(c *simCounts) { c.Recovery++ },
		"verify":      func(c *simCounts) { c.Verify.Incoherent++ },
		"counter":     func(c *simCounts) { c.Counters["interconnect.lane.req.flits"]++ },
		"extra":       func(c *simCounts) { c.Counters["core.gossip_rounds"] = 0 },
		"missing":     func(c *simCounts) { delete(c.Counters, "sim.events_fired") },
	}
	for name, mutate := range mutations {
		b := sampleCounts()
		mutate(&b)
		if err := diff(a, b); err == nil {
			t.Errorf("%s: mismatch not detected", name)
		}
	}
}

func TestCounterSumsLanes(t *testing.T) {
	c := sampleCounts()
	if got := c.counter("interconnect.packets"); got != 42 {
		t.Errorf("interconnect.packets = %d, want 42", got)
	}
	if got := c.counter("interconnect.flits"); got != 20 {
		t.Errorf("interconnect.flits = %d, want 20", got)
	}
	if got := c.counter("sim.events_fired"); got != 300000 {
		t.Errorf("sim.events_fired = %d", got)
	}
	if got := c.counter("sim.barriers"); got != 0 {
		t.Errorf("absent counter = %d, want 0", got)
	}
}

// fakeWorkload's replay reproduces its reference run unless mismatch is set.
func fakeWorkload(mismatch bool) workload {
	return workload{
		name: "fake",
		round: func(int64) roundResult {
			return roundResult{runs: []runOutcome{{wall: time.Millisecond, sim: sampleCounts()}, {wall: time.Millisecond, sim: sampleCounts()}}}
		},
		prepare: func(_ int64, c *clock) func(int) (simCounts, string) {
			return func(i int) (simCounts, string) {
				c.enter(phPrefault)
				s := sampleCounts()
				if mismatch && i == 1 {
					s.Events++
				}
				c.stop()
				return s, ""
			}
		},
	}
}

func TestFidelityCheckRejectsMismatchedRun(t *testing.T) {
	if _, err := measureTraced(fakeWorkload(true), 1, time.Nanosecond, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "fidelity") || !strings.Contains(err.Error(), "run 1") {
		t.Fatalf("mismatched replay: err = %v, want a fidelity error naming run 1", err)
	}
	res, err := measureTraced(fakeWorkload(false), 1, time.Nanosecond, io.Discard)
	if err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}
	if !res.Correct || res.Attempted != 2 || len(res.Metrics) != len(perLayer) {
		t.Fatalf("faithful replay: %+v, want correct with every per-layer metric", res)
	}
}

func TestParseCPUProfileLabels(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "verify"), func(context.Context) {
		deadline := time.Now().Add(400 * time.Millisecond)
		x := 0
		for time.Now().Before(deadline) {
			x++
		}
		runtime.KeepAlive(x)
	})
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(samples)
	if a.byPhase["verify"] == nil {
		t.Fatalf("no samples labelled phase=verify among %d samples", a.total)
	}
	var found bool
	for _, s := range samples {
		for _, f := range s.frames {
			if strings.HasPrefix(f, "flashfc/perfbench.TestParseCPUProfileLabels") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("the test's own frame is missing from the decoded stacks")
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code naming the
// same workloads and metrics with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
