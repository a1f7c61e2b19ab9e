package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The tests re-exec the test binary with TABLES_MAIN=1 so that main() runs
// exactly as the installed command would.
func TestMain(m *testing.M) {
	if os.Getenv("TABLES_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTables runs main() in a child process and returns its stdout.
func runTables(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TABLES_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("tables %v: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errb.String())
	}
	return out.String()
}

// dropThroughput removes the wall-time-dependent throughput line.
func dropThroughput(s string) string {
	var keep []string
	for _, l := range strings.Split(s, "\n") {
		if !strings.HasPrefix(l, "throughput:") {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n")
}

// -metrics must append the campaign aggregate to the tail and routing
// tables, as it does for 5.3/5.4, and must add nothing else: without it the
// output is the same table with no metrics block.
func TestTailAndRoutingHonorMetrics(t *testing.T) {
	const block = "\nmetrics (campaign aggregate):\n"
	for _, table := range []string{"tail", "routing"} {
		args := []string{"-table", table, "-runs", "1", "-workers", "2"}
		with := runTables(t, append(args, "-metrics")...)
		i := strings.Index(with, block)
		if i < 0 {
			t.Fatalf("-table %s -metrics printed no metrics block:\n%s", table, with)
		}
		if !strings.Contains(with[i:], "sim.events_fired") {
			t.Errorf("-table %s metrics block lacks sim.events_fired:\n%s", table, with[i:])
		}
		without := runTables(t, args...)
		if strings.Contains(without, block) {
			t.Errorf("-table %s printed a metrics block without -metrics", table)
		}
		if got, want := dropThroughput(with[:i]), dropThroughput(without); got != want {
			t.Errorf("-table %s: -metrics changed the table itself\nwith:\n%s\nwithout:\n%s", table, got, want)
		}
	}
}
