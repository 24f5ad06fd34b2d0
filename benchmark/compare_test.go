//go:build linux

package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// recordFile writes one end-to-end record per value of each metric of one
// workload and returns the file's path.
func recordFile(t *testing.T, name string, seed int64, metrics map[string][]measurement) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	runs := 0
	for _, ms := range metrics {
		runs = max(runs, len(ms))
	}
	for i := range runs {
		rec := &runRecord{Workload: workloads[0].name, Seed: seed, resultLine: resultLine{Correct: true, Attempted: 1, Metrics: results{}}}
		for metric, ms := range metrics {
			rec.Metrics[metric] = ms[min(i, len(ms)-1)]
		}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func one(v float64, windows ...float64) []measurement {
	return []measurement{{Value: v, Windows: windows}}
}

func many(vs ...float64) []measurement {
	var out []measurement
	for _, v := range vs {
		out = append(out, measurement{Value: v})
	}
	return out
}

func compareRows(t *testing.T, oldPath, newPath string) (code int, rows map[string]string) {
	t.Helper()
	var out bytes.Buffer
	code = compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), oldPath, newPath)
	rows = make(map[string]string)
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 8 && f[0] == workloads[0].name {
			rows[f[1]] = f[len(f)-1]
		}
	}
	return code, rows
}

func TestCompareVerdicts(t *testing.T) {
	spec := loadRepoSpec(t)
	bound := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	base := map[string][]measurement{
		"lookup_mlps":       one(1.00, 0.99, 1.00, 1.01),
		"daemon_rtt_p50_us": one(20),
		"model_mpps":        one(100),
		"daemon_klps":       one(200, 150, 200, 260), // a run whose own windows are 55% apart
	}
	old := recordFile(t, "old.jsonl", 1, base)

	// The same numbers again: every row ok, exit 0.
	if code, rows := compareRows(t, old, recordFile(t, "same.jsonl", 1, base)); code != 0 || rows["lookup_mlps"] != verdictOK || rows["model_mpps"] != verdictOK {
		t.Errorf("identical files: exit %d, rows %v", code, rows)
	}

	// Throughput down and latency up, both beyond the bound and the noise:
	// breaches in both directions, exit 1.
	worse := map[string][]measurement{
		"lookup_mlps":       one(1.00*(1-bound["lookup_mlps"]-0.05), 0.7, 0.7, 0.7),
		"daemon_rtt_p50_us": one(20 * (1 + bound["daemon_rtt_p50_us"] + 0.05)),
		"model_mpps":        one(100),
		"daemon_klps":       one(200, 150, 200, 260),
	}
	code, rows := compareRows(t, old, recordFile(t, "worse.jsonl", 1, worse))
	if code != 1 || rows["lookup_mlps"] != verdictBreach || rows["daemon_rtt_p50_us"] != verdictBreach {
		t.Errorf("regressions: exit %d, rows %v", code, rows)
	}
	// A metric whose own spread is wider than its bound is unresolved, not
	// unchanged, and does not fail the comparison on its own.
	if rows["daemon_klps"] != verdictUnresolved {
		t.Errorf("noisy metric: %q, want %s", rows["daemon_klps"], verdictUnresolved)
	}

	// The same moves in the good direction are not breaches.
	better := map[string][]measurement{
		"lookup_mlps":       one(1.5),
		"daemon_rtt_p50_us": one(10),
		"model_mpps":        one(100),
		"daemon_klps":       one(400, 390, 400, 410),
	}
	if code, rows := compareRows(t, old, recordFile(t, "better.jsonl", 1, better)); code != 0 || rows["lookup_mlps"] != verdictOK || rows["daemon_rtt_p50_us"] != verdictOK {
		t.Errorf("improvements: exit %d, rows %v", code, rows)
	}

	// A simulated metric must repeat exactly on one seed, whatever its
	// bound; across seeds it is held to the bound like the rest.
	drift := map[string][]measurement{"model_mpps": one(99.9999)}
	if code, rows := compareRows(t, old, recordFile(t, "drift.jsonl", 1, drift)); code != 1 || rows["model_mpps"] != verdictBreach {
		t.Errorf("model drift on one seed: exit %d, rows %v", code, rows)
	}
	if code, rows := compareRows(t, old, recordFile(t, "seed2.jsonl", 2, drift)); code != 0 || rows["model_mpps"] != verdictOK {
		t.Errorf("model difference across seeds: exit %d, rows %v", code, rows)
	}
}

// With enough runs on each side the noise is the distance between the
// quartiles of the runs, as the driver computes it.
func TestCompareUsesRunToRunSpread(t *testing.T) {
	steady := recordFile(t, "steady.jsonl", 1, map[string][]measurement{"lookup_mlps": many(1.00, 1.01, 0.99, 1.00, 1.00, 1.01)})
	noisy := recordFile(t, "noisy.jsonl", 1, map[string][]measurement{"lookup_mlps": many(0.6, 1.4, 0.7, 1.3, 1.0, 0.9)})
	if code, rows := compareRows(t, steady, noisy); code != 0 || rows["lookup_mlps"] != verdictUnresolved {
		t.Errorf("noisy side: exit %d, rows %v", code, rows)
	}
	// Every new run better than every old run resolves it, however noisy.
	faster := recordFile(t, "faster.jsonl", 1, map[string][]measurement{"lookup_mlps": many(2, 4, 3, 5, 2.5, 3.5)})
	if code, rows := compareRows(t, steady, faster); code != 0 || rows["lookup_mlps"] != verdictOK {
		t.Errorf("all runs better: exit %d, rows %v", code, rows)
	}
}

func TestCompareRejectsUnusableFiles(t *testing.T) {
	old := recordFile(t, "old.jsonl", 1, map[string][]measurement{"lookup_mlps": one(1)})
	var out bytes.Buffer
	if code := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), old, filepath.Join(t.TempDir(), "missing.jsonl")); code == 0 {
		t.Error("a missing file compared clean")
	}
	traced := filepath.Join(t.TempDir(), "traced.jsonl")
	if err := appendRecord(traced, &runRecord{Workload: workloads[0].name, Trace: 1, resultLine: resultLine{Metrics: results{"lookup_mlps": {Value: 1}}}}); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), old, traced); code == 0 {
		t.Error("files with no run in common compared clean")
	}
}
