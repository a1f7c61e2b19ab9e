// Command perfbench is flashfc's same-host benchmark: it runs one named
// workload through the flashfc campaign API for a fixed host time, checks
// every run's output, and prints every end-to-end metric by name with its
// unit. With --trace 1 it instead replays the runs step by step under a CPU
// profile and reports per-layer metrics. The last line of standard output
// is one JSON object; see README.md for the metrics and the workloads.
//
//	bash perfbench/run.sh --workload validate16 --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, per workload.
var endToEnd = []metricDef{
	{"runs_per_s", "1/s"},
	{"run_ms_p50", "ms"},
	{"run_ms_tail", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, per workload; a layer
// that does no work on a workload reads 0.
var perLayer = []metricDef{
	{"warmup.ms", "ms"},
	{"fork.us", "us"},
	{"fork.allocs", "count"},
	{"fork.share", "%"},
	{"build.ms", "ms"},
	{"prefault.ms", "ms"},
	{"prefault.allocs", "count"},
	{"fill.ms", "ms"},
	{"fill.allocs", "count"},
	{"recovery.ms", "ms"},
	{"recovery.allocs", "count"},
	{"settle.ms", "ms"},
	{"verify.ms", "ms"},
	{"verify.allocs", "count"},
	{"verify.lines_per_s", "1/s"},
	{"cpu.sim", "%"},
	{"cpu.interconnect", "%"},
	{"cpu.magic", "%"},
	{"cpu.coherence", "%"},
	{"cpu.proc", "%"},
	{"cpu.core", "%"},
	{"cpu.routing", "%"},
	{"cpu.topology", "%"},
	{"cpu.machine", "%"},
	{"cpu.workload", "%"},
	{"cpu.runtime_gc", "%"},
	{"cpu.runtime_alloc", "%"},
	{"cpu.runtime_maps", "%"},
	{"cpu.other", "%"},
	{"cpu.samples", "count"},
	{"gc.cycles", "count"},
	{"heap.alloc_mb", "MB"},
	{"alloc.per_event", "count"},
	{"sim.events_fired", "count"},
	{"sim.barriers", "count"},
	{"sim.cross_region_merged", "count"},
	{"interconnect.packets", "count"},
	{"interconnect.flits", "count"},
	{"interconnect.backpressure_stalls", "count"},
	{"magic.mem_op_timeouts", "count"},
	{"magic.naks_sent", "count"},
	{"core.gossip_rounds", "count"},
	{"core.drain_attempts", "count"},
	{"core.drain_restarts", "count"},
	{"core.recovery_restarts", "count"},
	{"verify.lines_checked", "count"},
	{"sim_recovery_ms_p50", "ms"},
	{"sim_recovery_ms_tail", "ms"},
	{"trace.overhead_ms", "ms"},
}

// simCounters are the per-run simulated counts the traced run reports.
var simCounters = []string{
	"sim.events_fired", "sim.barriers", "sim.cross_region_merged",
	"interconnect.packets", "interconnect.flits", "interconnect.backpressure_stalls",
	"magic.mem_op_timeouts", "magic.naks_sent",
	"core.gossip_rounds", "core.drain_attempts", "core.drain_restarts", "core.recovery_restarts",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: validate16, scale128 or fill1024")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "host seconds to measure")
	traced := fs.Int("trace", 0, "1: report per-layer metrics from a traced replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadNamed(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	dur := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		var err error
		if res, err = measureTraced(w, *seed, dur, out); err != nil {
			return err
		}
	} else {
		res = measure(w, *seed, dur, out)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// report prints one metric line and records it in res.
func report(out io.Writer, res *result, defs []metricDef, name string, v float64, note string) {
	unit := ""
	for _, d := range defs {
		if d.name == name {
			unit = d.unit
		}
	}
	if unit == "" {
		panic("perfbench: unlisted metric " + name)
	}
	res.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(out, "  %-34s %14.6g %-5s%s\n", name, v, unit, note)
}

// tally counts a round's outcomes into res, checking each run against the
// same run of the first round: a seed's runs must simulate identically.
// Failures are printed, never dropped.
func tally(out io.Writer, res *result, round int, runs, first []runOutcome) {
	for i, o := range runs {
		res.Attempted++
		if o.note == "" && round > 0 {
			if err := diff(first[i].sim, o.sim); err != nil {
				o.note = fmt.Sprintf("differs from round 0: %v", err)
			}
		}
		if o.note != "" {
			res.Failed++
			fmt.Fprintf(out, "FAIL round %d run %d: %s\n", round, i, o.note)
		}
	}
}

// measure is the untraced run: set-up passes, then rounds of the batch
// until the run phase has lasted dur (at least two rounds, so every run is
// checked for determinism).
func measure(w workload, seed int64, dur time.Duration, out io.Writer) result {
	res := result{Metrics: map[string]metric{}}
	var setups []float64
	for k := 0; k < w.setupReps; k++ {
		t := time.Now()
		w.setUp(seed)
		setups = append(setups, time.Since(t).Seconds())
	}
	var (
		first    []runOutcome
		walls    []float64
		peaks    []float64
		measured time.Duration
		last     time.Duration
		rounds   int
	)
	for ; rounds < 2 || measured+last/2 < dur; rounds++ {
		stop := make(chan struct{})
		peak := peakMemory(stop)
		r := w.round(seed)
		close(stop)
		peaks = append(peaks, <-peak)
		if rounds == 0 {
			first = r.runs
		}
		tally(out, &res, rounds, r.runs, first)
		for _, o := range r.runs {
			walls = append(walls, float64(o.wall)/float64(time.Millisecond))
		}
		measured += r.wall
		last = r.wall
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "%s seed %d: %d runs in %d rounds of %d, run phase %.2fs\n",
		w.name, seed, res.Attempted, rounds, len(first), measured.Seconds())
	tl := tail(walls)
	report(out, &res, endToEnd, "runs_per_s", float64(len(walls))/measured.Seconds(), "set-up excluded")
	report(out, &res, endToEnd, "run_ms_p50", median(walls), fmt.Sprintf("%d runs", len(walls)))
	report(out, &res, endToEnd, "run_ms_tail", tl.Value, tl.String())
	report(out, &res, endToEnd, "setup_s", median(setups), fmt.Sprintf("median of %d set-up passes", len(setups)))
	report(out, &res, endToEnd, "peak_rss_mb", mean(peaks),
		fmt.Sprintf("mean of %d rounds' peaks; process ru_maxrss %.4g MB", len(peaks), maxRSSMB()))
	fmt.Fprintf(out, "  %-34s %14.6g        (%d of %d runs failed)\n", "fail_rate",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if rec := recoveries(first); len(rec) > 0 {
		st := tail(rec)
		fmt.Fprintf(out, "  %-34s %14.6g ms     (exact, %d distinct runs)\n", "sim_recovery_ms_p50", median(rec), len(rec))
		fmt.Fprintf(out, "  %-34s %14.6g ms     (exact, %s)\n", "sim_recovery_ms_tail", st.Value, st)
	}
	return res
}

// recoveries returns the simulated containment times (ms) of the runs that
// had a fault.
func recoveries(runs []runOutcome) []float64 {
	var ms []float64
	for _, o := range runs {
		if o.sim.Recovery > 0 {
			ms = append(ms, float64(o.sim.Recovery)/1e6)
		}
	}
	return ms
}

// peakMemory samples, every millisecond until stop is closed, the memory
// the Go runtime holds from the OS (mapped and not released: the process's
// resident memory less its binary) and then sends the peak in MiB. The
// process-wide high-water mark is one extreme GC overshoot; the mean of
// per-round peaks is steadier.
func peakMemory(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		sm := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			select {
			case <-stop:
				out <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
				metrics.Read(sm)
				peak = max(peak, sm[0].Value.Uint64()-sm[1].Value.Uint64())
			}
		}
	}()
	return out
}

// maxRSSMB is the process's resident high-water mark in MiB (ru_maxrss is
// in KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// measureTraced runs one untraced round as the reference, then replays its
// runs step by step under the phase clock and a CPU profile until dur has
// passed (at least one full pass). Every replayed run must reproduce its
// reference run's simulated counts exactly; a mismatch aborts.
func measureTraced(w workload, seed int64, dur time.Duration, out io.Writer) (result, error) {
	start := time.Now()
	res := result{Metrics: map[string]metric{}}
	ref := w.round(seed)
	tally(out, &res, 0, ref.runs, ref.runs)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return res, fmt.Errorf("cpu profile: %w", err)
	}
	c := newClock()
	replay := w.prepare(seed, c)
	var tracedWalls []float64
	var events, lines float64
	for k := 0; k < len(ref.runs) || time.Since(start) < dur; k++ {
		i := k % len(ref.runs)
		c.run = i
		t := time.Now()
		sim, note := replay(i)
		tracedWalls = append(tracedWalls, float64(time.Since(t))/float64(time.Millisecond))
		if err := diff(ref.runs[i].sim, sim); err != nil || (note == "") != (ref.runs[i].note == "") {
			pprof.StopCPUProfile()
			return res, fmt.Errorf("fidelity: traced replay of run %d does not reproduce the untraced run: %v (traced note %q, untraced %q)",
				i, err, note, ref.runs[i].note)
		}
		events += float64(sim.Events)
		lines += float64(sim.Verify.Lines)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return res, err
	}
	attr := attribute(samples)
	res.Correct = res.Failed == 0

	var untracedWalls []float64
	for _, o := range ref.runs {
		untracedWalls = append(untracedWalls, float64(o.wall)/float64(time.Millisecond))
	}
	fmt.Fprintf(out, "%s seed %d: %d reference runs, %d traced replays, every replay reproduced its run\n",
		w.name, seed, len(ref.runs), len(tracedWalls))
	writePhaseTable(out, c.spans)
	writeAttribution(out, attr)
	reportLayers(out, &res, c.spans, attr, ref.runs, len(tracedWalls), events, lines)
	report(out, &res, perLayer, "trace.overhead_ms", median(tracedWalls)-median(untracedWalls),
		fmt.Sprintf("median traced run %.4g ms - median untraced run %.4g ms", median(tracedWalls), median(untracedWalls)))
	return res, nil
}

// phaseStats gathers one phase's spans.
type phaseStats struct {
	ms, allocs []float64
	bytes      float64
	gcs        float64
	total      time.Duration
}

func byPhase(spans []span) [numPhases]phaseStats {
	var ps [numPhases]phaseStats
	for _, s := range spans {
		p := &ps[s.phase]
		p.ms = append(p.ms, float64(s.dur())/float64(time.Millisecond))
		p.allocs = append(p.allocs, float64(s.allocs))
		p.bytes += float64(s.bytes)
		p.gcs += float64(s.gcs)
		p.total += s.dur()
	}
	return ps
}

func writePhaseTable(out io.Writer, spans []span) {
	ps := byPhase(spans)
	fmt.Fprintf(out, "  %-10s %6s %12s %12s %12s %10s\n", "phase", "spans", "ms p50", "allocs/span", "MB/span", "gc/span")
	for p, s := range ps {
		if len(s.ms) == 0 {
			continue
		}
		n := float64(len(s.ms))
		fmt.Fprintf(out, "  %-10s %6d %12.4g %12.4g %12.4g %10.3g\n", phase(p), len(s.ms),
			median(s.ms), mean(s.allocs), s.bytes/n/(1<<20), s.gcs/n)
	}
}

// writeAttribution prints self samples per bucket per phase label.
func writeAttribution(out io.Writer, a attribution) {
	fmt.Fprintf(out, "  cpu self samples by phase (%d total):\n", a.total)
	for _, p := range append(phaseNames[:], "") {
		row := a.byPhase[p]
		if row == nil {
			continue
		}
		var parts []string
		var n int64
		for _, b := range buckets() {
			if row[b] > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", b, row[b]))
				n += row[b]
			}
		}
		if p == "" {
			p = "(none)"
		}
		fmt.Fprintf(out, "    %-10s %6d  %s\n", p, n, strings.Join(parts, " "))
	}
}

// reportLayers derives the per-layer metrics from the spans, the profile
// and the reference runs' exact counts.
// events and lines are the traced replays' simulated events and readback
// lines.
func reportLayers(out io.Writer, res *result, spans []span, attr attribution, ref []runOutcome, traced int, events, lines float64) {
	ps := byPhase(spans)
	msOf := func(p phase) float64 { return median(ps[p].ms) }
	allocsOf := func(p phase) float64 { return mean(ps[p].allocs) }
	var runTotal time.Duration
	var allocs, bytes, gcs float64
	for _, s := range spans {
		if s.run >= 0 {
			runTotal += s.dur()
			allocs += float64(s.allocs)
			bytes += float64(s.bytes)
			gcs += float64(s.gcs)
		}
	}

	report(out, res, perLayer, "warmup.ms", msOf(phWarmup), "")
	report(out, res, perLayer, "fork.us", msOf(phFork)*1000, "")
	report(out, res, perLayer, "fork.allocs", allocsOf(phFork), "")
	report(out, res, perLayer, "fork.share", 100*ratio(float64(ps[phFork].total), float64(runTotal)), "share of traced run time")
	report(out, res, perLayer, "build.ms", msOf(phBuild), "")
	report(out, res, perLayer, "prefault.ms", msOf(phPrefault), "")
	report(out, res, perLayer, "prefault.allocs", allocsOf(phPrefault), "")
	report(out, res, perLayer, "fill.ms", msOf(phFill), "")
	report(out, res, perLayer, "fill.allocs", allocsOf(phFill), "")
	report(out, res, perLayer, "recovery.ms", msOf(phRecovery), "")
	report(out, res, perLayer, "recovery.allocs", allocsOf(phRecovery), "")
	report(out, res, perLayer, "settle.ms", msOf(phSettle), "")
	report(out, res, perLayer, "verify.ms", msOf(phVerify), "")
	report(out, res, perLayer, "verify.allocs", allocsOf(phVerify), "")
	report(out, res, perLayer, "verify.lines_per_s", ratio(lines, ps[phVerify].total.Seconds()), "")
	for _, b := range buckets() {
		report(out, res, perLayer, "cpu."+b, attr.share(b), fmt.Sprintf("%d samples", attr.byBucket[b]))
	}
	report(out, res, perLayer, "cpu.samples", float64(attr.total), "")
	report(out, res, perLayer, "gc.cycles", gcs/float64(traced), "per run")
	report(out, res, perLayer, "heap.alloc_mb", bytes/float64(traced)/(1<<20), "per run")
	report(out, res, perLayer, "alloc.per_event", ratio(allocs, events), "")
	for _, name := range simCounters {
		var sum float64
		for _, o := range ref {
			sum += float64(o.sim.counter(name))
		}
		report(out, res, perLayer, name, sum/float64(len(ref)), "per run, exact")
	}
	var checked float64
	for _, o := range ref {
		checked += float64(o.sim.Verify.Lines)
	}
	report(out, res, perLayer, "verify.lines_checked", checked/float64(len(ref)), "per run, exact")
	rec := recoveries(ref)
	st := tail(rec)
	report(out, res, perLayer, "sim_recovery_ms_p50", median(rec), fmt.Sprintf("exact, %d distinct runs", len(rec)))
	report(out, res, perLayer, "sim_recovery_ms_tail", st.Value, "exact, "+st.String())
}
