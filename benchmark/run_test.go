//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func loadRepoSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json and the program must name the same metrics and
// workloads, in the same order, within the limits of the contract.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec := loadRepoSpec(t)
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, the contract fixes 6", len(keys))
	}
	if got := strings.Join(spec.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	seen := make(map[string]bool)
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
		if better != lower && better != higher {
			t.Errorf("%s: better = %q", name, better)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, the program says %+v", i, m, d)
		}
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the program says %+v", i, m, d)
		}
		check(m.Name, m.Unit, m.Better)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workloads[%d] = %+v, the program says %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why breaks the contract (why is %d characters)", w.Name, len(w.Why))
		}
		if _, pinned := pinnedDigests[w.Name]; !pinned {
			t.Errorf("workload %q has no pinned input digest", w.Name)
		}
	}
}

func testConfig(t *testing.T) (runConfig, string) {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seconds: 1.25, par: 2, root: root, outDir: t.TempDir(), procs: &procGroup{ctx: context.Background()}}
	bin, err := buildDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, bin
}

// The smoke run: all four workloads at 500 rules with 50 ms windows, end
// to end and traced, against a real daemon. Every metric BENCHMARK.json
// names must come out under that name, no verdict may fail, the traced
// run must leave its span file, and every daemon must be gone.
func TestAllWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	spec := loadRepoSpec(t)
	cfg, bin := testConfig(t)
	start := time.Now()
	for _, ws := range smallSpecs() {
		for trace := 0; trace <= 1; trace++ {
			var table bytes.Buffer
			rec, err := runWorkload(&table, &ws, 3, trace, cfg, bin)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", ws.name, trace, err, table.String())
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%d: %d of %d operations failed", ws.name, trace, rec.Failed, rec.Attempted)
			}
			var want []string
			if trace == 0 {
				for _, m := range spec.EndToEnd {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range spec.PerLayer {
					want = append(want, m.Name)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics reported, BENCHMARK.json names %d", ws.name, trace, len(rec.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := rec.Metrics[name]
				if !ok || !strings.Contains(table.String(), "  "+name+" ") {
					t.Errorf("%s trace=%d: metric %s missing from the result or the printed table", ws.name, trace, name)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want above 0", ws.name, name, m.Value)
				}
			}
			if !strings.Contains(table.String(), "fail_pct") {
				t.Errorf("%s trace=%d: the table does not print fail_pct", ws.name, trace)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+ws.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", ws.name, err)
		}
	}
	cfg.procs.wg.Wait() // every daemon has been reaped
	t.Logf("smoke took %v", time.Since(start))
}

func TestDaemonIsReapedOnCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	cfg, bin := testConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	procs := &procGroup{ctx: ctx}
	d, err := startDaemon(procs, bin)
	if err != nil {
		t.Fatal(err)
	}
	if rss, err := d.peakRSSMiB(); err != nil || rss <= 0 {
		t.Errorf("peak RSS = %v, %v", rss, err)
	}
	cancel() // what a SIGINT does to the run's context
	procs.wg.Wait()
	if err := d.stop(); err == nil {
		t.Error("stop of a killed daemon reported a clean exit")
	}
	if _, err := startDaemon(&procGroup{ctx: context.Background()}, filepath.Join(cfg.outDir, "missing")); err == nil {
		t.Error("starting a missing binary reported no error")
	}
}

func TestDigestPinsDefaultSeed(t *testing.T) {
	in := &inputs{spec: &workloads[0], seed: pinnedSeed, digest: "not the pinned digest"}
	if err := in.checkDigest(); err == nil {
		t.Error("a default-seed run with changed inputs passed the digest check")
	}
	in.digest = pinnedDigests[workloads[0].name]
	if err := in.checkDigest(); err != nil {
		t.Errorf("the pinned digest was refused: %v", err)
	}
	in.seed, in.digest = pinnedSeed+1, "anything"
	if err := in.checkDigest(); err != nil {
		t.Errorf("another seed is not pinned, yet: %v", err)
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"-trace", "-trace 1"},
		{"--trace 0 --seed 3", "--trace 0 --seed 3"},
		{"-trace -workload x", "-trace 1 -workload x"},
		{"--workload x --seed 2 --seconds 20 --trace 1", "--workload x --seed 2 --seconds 20 --trace 1"},
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(tc.in)), " "); got != tc.want {
			t.Errorf("normalizeArgs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	procs := &procGroup{ctx: context.Background()}
	for _, args := range [][]string{
		{"-workload", "nosuch"},
		{"-seconds", "0"},
		{"-trace", "2"},
		{"-compare", "only-one.jsonl"},
		{"-nosuchflag"},
	} {
		if code := run(args, procs); code == 0 {
			t.Errorf("run(%v) = 0, want a failure", args)
		}
	}
}

func TestParseVerdict(t *testing.T) {
	for _, tc := range []struct {
		line string
		id   int32
		ok   bool
	}{
		{"MATCH 42 7 permit\n", 42, true},
		{"NOMATCH\r\n", 0, true},
		{"ERR unknown table\n", 0, false},
		{"MATCH x 7 permit\n", 0, false},
		{"", 0, false},
	} {
		id, err := parseVerdict([]byte(tc.line))
		if (err == nil) != tc.ok || id != tc.id {
			t.Errorf("parseVerdict(%q) = %d, %v", tc.line, id, err)
		}
	}
}
