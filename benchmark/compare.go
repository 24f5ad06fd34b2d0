//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is BENCHMARK.json: the metric names, units, directions
// and the regression bounds the repository fixes for them.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"` // no bound
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadRecords reads a -out file: one runRecord per line.
func loadRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does, which is what the driver computes
// spreads with. v must hold at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		d := float64(i*m - j*4) // after the clamp, as Python does: it extrapolates at the ends
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// series is one (workload, metric) pair of one record file.
type series struct {
	values []float64 // one per run
	own    float64   // widest spread between the windows inside any one run
	seeds  map[int64]bool
}

func (s *series) median() float64 { return median(s.values) }

// noise is the side's run-to-run spread as a share of its median: the
// distance between the quartiles when there are enough runs to have
// quartiles, else what the windows inside the runs say.
func (s *series) noise() float64 {
	if len(s.values) < 4 {
		return s.own
	}
	return spread(s.values)
}

func collect(recs []runRecord) map[string]map[string]*series {
	out := make(map[string]map[string]*series)
	for _, rec := range recs {
		if rec.Trace != 0 {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string]*series)
		}
		for name, m := range rec.Metrics {
			s := out[rec.Workload][name]
			if s == nil {
				s = &series{seeds: make(map[int64]bool)}
				out[rec.Workload][name] = s
			}
			s.values = append(s.values, m.Value)
			s.own = max(s.own, spread(m.Windows))
			s.seeds[rec.Seed] = true
		}
	}
	return out
}

// exactForSeed lists the metrics that are simulated, not timed: two runs
// on one seed must agree to the last digit whatever the bound says.
var exactForSeed = map[string]bool{"model_mpps": true, "model_mem_kib": true}

// Verdicts of one comparison row.
const (
	verdictOK         = "ok"
	verdictBreach     = "BREACH"
	verdictUnresolved = "UNRESOLVED"
)

// judge compares one metric of two sides. A regression is a worsening
// beyond both the bound and the sides' own noise. Where the noise is
// wider than the bound and the worsening sits inside it, the row is
// unresolved, not unchanged, unless every new run beats every old one.
func judge(m boundedMetric, old, cur *series) (delta, noise float64, verdict string) {
	delta = worsening(old.median(), cur.median(), m.Better)
	noise = max(old.noise(), cur.noise())
	sameSeed := len(old.seeds) == 1 && len(cur.seeds) == 1
	for seed := range old.seeds {
		sameSeed = sameSeed && cur.seeds[seed]
	}
	switch {
	case exactForSeed[m.Name] && sameSeed:
		if old.median() != cur.median() {
			return delta, noise, verdictBreach
		}
		return delta, noise, verdictOK
	case delta > max(m.Bound, noise):
		return delta, noise, verdictBreach
	case noise > m.Bound && !allBetter(m.Better, old.values, cur.values):
		return delta, noise, verdictUnresolved
	}
	return delta, noise, verdictOK
}

func allBetter(better string, old, cur []float64) bool {
	for _, o := range old {
		for _, c := range cur {
			if worsening(o, c, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// record files and returns the process exit code: 1 on any breach.
func compareFiles(w io.Writer, specPath, oldPath, newPath string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	oldRecs, err := loadRecords(oldPath)
	if err != nil {
		return fail(err)
	}
	newRecs, err := loadRecords(newPath)
	if err != nil {
		return fail(err)
	}
	old, cur := collect(oldRecs), collect(newRecs)
	fmt.Fprintf(w, "%-20s %-22s %14s %14s %9s %7s %7s  %s\n",
		"workload", "metric", "old median", "new median", "worse by", "bound", "noise", "verdict")
	breaches, rows := 0, 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			o, c := old[wl.Name][m.Name], cur[wl.Name][m.Name]
			if o == nil || c == nil {
				continue
			}
			rows++
			delta, noise, verdict := judge(m, o, c)
			if verdict == verdictBreach {
				breaches++
			}
			fmt.Fprintf(w, "%-20s %-22s %14.4f %14.4f %+8.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, o.median(), c.median(), 100*delta, 100*m.Bound, 100*noise, verdict)
		}
	}
	if rows == 0 {
		return fail(fmt.Errorf("%s and %s share no end-to-end run of any workload", oldPath, newPath))
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d of %d rows breach their bound\n", breaches, rows)
		return 1
	}
	return 0
}
