package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Smoke test: -list prints every registered scenario.
func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"fig1", "fig12-15", "claim4", "tableI"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
	// Each line carries the scenario's executor modes: the sharded
	// families advertise all three, the dumbbell figures two.
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "scalechain"):
			if !strings.Contains(line, "serial,parallel,sharded") {
				t.Fatalf("scalechain should list sharded mode: %q", line)
			}
		case strings.HasPrefix(line, "fig1 "):
			if !strings.Contains(line, "serial,parallel") || strings.Contains(line, "sharded") {
				t.Fatalf("fig1 modes wrong: %q", line)
			}
		}
	}
	// The legacy positional spelling still works.
	var out2 bytes.Buffer
	if code := run([]string{"list"}, &out2, &errb); code != 0 || out2.String() != out.String() {
		t.Fatalf("positional list differs (exit %d)", code)
	}
}

// Smoke test: -run executes a small scenario end to end, serially and
// in parallel, with identical TSV.
func TestRunScenario(t *testing.T) {
	var serial, par, errb bytes.Buffer
	if code := run([]string{"-run", "fig1,tableI"}, &serial, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(serial.String(), "# fig1") || !strings.Contains(serial.String(), "# tableI") {
		t.Fatalf("missing table headers:\n%s", serial.String())
	}
	if code := run([]string{"-parallel", "-workers", "4", "-run", "fig1,tableI"}, &par, &errb); code != 0 {
		t.Fatalf("parallel exit %d, stderr: %s", code, errb.String())
	}
	if par.String() != serial.String() {
		t.Fatal("parallel output differs from serial")
	}
	// Positional arguments accept the same comma-separated spelling,
	// with whitespace tolerated.
	var pos bytes.Buffer
	if code := run([]string{"fig1, tableI"}, &pos, &errb); code != 0 {
		t.Fatalf("positional list exit %d, stderr: %s", code, errb.String())
	}
	if pos.String() != serial.String() {
		t.Fatal("positional comma list differs from -run")
	}
}

// Smoke test: -shards routes a sharded-capable scenario through the
// space-parallel engine with TSV byte-identical to the serial run.
func TestRunShardsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded smoke run skipped in -short mode")
	}
	args := []string{"-quick", "-events", "2000", "-simfactor", "0.04", "-run", "parkinglot"}
	var serial, sharded, errb bytes.Buffer
	if code := run(args, &serial, &errb); code != 0 {
		t.Fatalf("serial exit %d, stderr: %s", code, errb.String())
	}
	if code := run(append([]string{"-shards", "3"}, args...), &sharded, &errb); code != 0 {
		t.Fatalf("sharded exit %d, stderr: %s", code, errb.String())
	}
	if sharded.String() != serial.String() {
		t.Fatal("-shards 3 output differs from serial")
	}
}

// -deadline on a healthy run: the watchdog stays quiet, the output is
// byte-identical to the plain serial run, exit 0.
func TestDeadlineQuietOnHealthyRun(t *testing.T) {
	var plain, hardened, errb bytes.Buffer
	if code := run([]string{"-run", "fig1,tableI"}, &plain, &errb); code != 0 {
		t.Fatalf("plain exit %d, stderr: %s", code, errb.String())
	}
	if code := run([]string{"-deadline", "10m", "-run", "fig1,tableI"}, &hardened, &errb); code != 0 {
		t.Fatalf("hardened exit %d, stderr: %s", code, errb.String())
	}
	if hardened.String() != plain.String() {
		t.Fatal("-deadline output differs from plain run")
	}
}

// -deadline with an impossible budget: every job is abandoned, the
// failure manifest lands on stderr with the job seeds, the table
// headers still print (empty tables), and the exit code turns 1 —
// partial-results mode, not a crash.
func TestDeadlineAbandonsAndReports(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-events", "500", "-simfactor", "0.02", "-deadline", "1ns", "-run", "hetrtt"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	for _, want := range []string{"jobs failed", "seed", "watchdog"} {
		if !strings.Contains(errb.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, errb.String())
		}
	}
	if !strings.Contains(out.String(), "# hetrtt") {
		t.Fatalf("surviving (empty) table header not printed:\n%s", out.String())
	}
}

// -seed filters a batch to the jobs carrying that seed: claim4's jobs
// all carry seed 7, so -seed 7 reproduces the full table and a seed no
// job carries yields just the header.
func TestSeedFilter(t *testing.T) {
	var full, same, none, errb bytes.Buffer
	if code := run([]string{"-run", "claim4"}, &full, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if code := run([]string{"-seed", "7", "-run", "claim4"}, &same, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if same.String() != full.String() {
		t.Fatalf("-seed 7 differs from the full run:\n%s\nvs\n%s", same.String(), full.String())
	}
	if code := run([]string{"-seed", "424242", "-run", "claim4"}, &none, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(none.String(), "# claim4") || strings.Count(none.String(), "\n") >= strings.Count(full.String(), "\n") {
		t.Fatalf("-seed with no matching jobs should print an empty table:\n%s", none.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "no-such-figure"}, &out, &errb); code != 2 {
		t.Fatalf("unknown scenario: exit %d", code)
	}
	if !strings.Contains(errb.String(), "no-such-figure") {
		t.Fatalf("stderr: %s", errb.String())
	}
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no args: exit %d", code)
	}
}

// The observability flags: -metrics and -epochs append their blocks
// after the tables and the whole stream — tables plus capture — stays
// byte-identical between the serial engine and a sharded run; -trace
// writes a parseable Chrome trace_event JSON array. A plain run stays
// capture-free.
func TestObservabilityFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("observability smoke run skipped in -short mode")
	}
	traceOut := filepath.Join(t.TempDir(), "events.json")
	args := []string{"-quick", "-events", "2000", "-simfactor", "0.04",
		"-metrics", "-epochs", "3", "-trace", traceOut, "-run", "parkinglot"}
	var serial, sharded, errb bytes.Buffer
	if code := run(args, &serial, &errb); code != 0 {
		t.Fatalf("serial exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"# metrics parkinglot", "# epochs parkinglot",
		"des.events_fired", "net.forwarded", "tfrc.loss_events"} {
		if !strings.Contains(serial.String(), want) {
			t.Fatalf("capture block missing %q:\n%s", want, serial.String())
		}
	}
	if code := run(append([]string{"-shards", "3"}, args...), &sharded, &errb); code != 0 {
		t.Fatalf("sharded exit %d, stderr: %s", code, errb.String())
	}
	if sharded.String() != serial.String() {
		t.Fatal("-shards 3 observed output differs from serial")
	}

	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace file is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace file holds no events")
	}
	if name, _ := events[0]["name"].(string); name != "process_name" {
		t.Fatalf("trace should open with process metadata, got %v", events[0])
	}

	// Without the flags the stream carries no capture blocks.
	var plain bytes.Buffer
	if code := run([]string{"-quick", "-events", "2000", "-simfactor", "0.04",
		"-run", "parkinglot"}, &plain, &errb); code != 0 {
		t.Fatalf("plain exit %d, stderr: %s", code, errb.String())
	}
	if strings.Contains(plain.String(), "# metrics") || strings.Contains(plain.String(), "# epochs") {
		t.Fatalf("plain run leaked capture blocks:\n%s", plain.String())
	}
}

// Out-of-range flag values exit 2 with a message naming the flag and
// its value, before any scenario runs or any file is written.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-quick", "-simfactor", "2", "fig5"}, "-simfactor 2"},
		{[]string{"-simfactor", "NaN", "fig1"}, "-simfactor NaN"},
		{[]string{"-simfactor", "-1", "fig1"}, "-simfactor -1"},
		{[]string{"-simfactor", "0", "fig1"}, "-simfactor 0"},
		{[]string{"-checkpoint-every", "NaN", "-checkpoint-dir", dir, "fig1"}, "-checkpoint-every NaN"},
		{[]string{"-checkpoint-every", "-2", "-checkpoint-dir", dir, "fig1"}, "-checkpoint-every -2"},
		{[]string{"-checkpoint-every", "Inf", "-checkpoint-dir", dir, "fig1"}, "-checkpoint-every +Inf"},
		{[]string{"-epochs", "-1", "fig1"}, "-epochs -1"},
		{[]string{"-events", "-1", "fig1"}, "-events -1"},
		{[]string{"-workers", "-1", "-parallel", "fig1"}, "-workers -1"},
		{[]string{"-shards", "-1", "fig1"}, "-shards -1"},
		{[]string{"-retries", "-1", "fig1"}, "-retries -1"},
		{[]string{"-deadline", "-1s", "fig1"}, "-deadline -1s"},
		{[]string{"-tracecap", "0", "-trace", trace, "fig1"}, "-tracecap 0"},
		{[]string{"-tracecap", "-5", "-trace", trace, "fig1"}, "-tracecap -5"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stderr %q does not name %q", tc.args, errb.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote output before rejecting: %q", tc.args, out.String())
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("rejected runs left files behind: %v", entries)
	}
	// -tracecap is only checked when -trace is set.
	var out, errb bytes.Buffer
	if code := run([]string{"-tracecap", "0", "-run", "fig1"}, &out, &errb); code != 0 {
		t.Fatalf("-tracecap 0 without -trace: exit %d, stderr: %s", code, errb.String())
	}
}
