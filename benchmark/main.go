//go:build linux

// Command benchmark is the repository's one performance ledger: it runs
// four workloads end to end (library, then a real classifierd over
// loopback), checks every verdict against the rule.Set oracle, and
// prints every metric by name with its unit. With -trace 1 it measures
// the same workloads layer by layer instead. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	procs := &procGroup{ctx: ctx}
	done := make(chan int, 1)
	go func() { done <- run(os.Args[1:], procs) }()
	select {
	case code := <-done:
		os.Exit(code)
	case <-ctx.Done():
		// The context has killed every subprocess; leave once each is reaped.
		procs.wg.Wait()
		fmt.Fprintln(os.Stderr, "benchmark: interrupted")
		os.Exit(130)
	}
}

// procGroup ties subprocess lifetime to the run: cancelling ctx kills
// them, and wg counts the ones not yet reaped.
type procGroup struct {
	ctx context.Context
	wg  sync.WaitGroup
}

// normalizeArgs lets a bare -trace stand for -trace 1, so both the
// driver's "--trace 0|1" and a hand-typed "-trace" parse.
func normalizeArgs(args []string) []string {
	var out []string
	for i, a := range args {
		out = append(out, a)
		if a == "-trace" || a == "--trace" {
			if i+1 == len(args) || strings.HasPrefix(args[i+1], "-") {
				out = append(out, "1")
			}
		}
	}
	return out
}

// runRecord is one workload's run as appended to the -out file; the
// last line of standard output is its correct/attempted/failed/metrics.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Par        int     `json:"par"`
	GoVersion  string  `json:"go"`
	Digest     string  `json:"inputs_sha256"`
	resultLine
}

// resultLine is the driver's contract: exactly these four keys.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   results `json:"metrics"`
}

func run(args []string, procs *procGroup) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", pinnedSeed, "seed every input is generated from")
	seconds := fs.Float64("seconds", 25, "length of the timed phases of one workload")
	trace := fs.Int("trace", 0, "1 runs the traced, layer-by-layer measurement instead of the end-to-end one")
	out := fs.String("out", "", "file run records are appended to (default benchmark/out/results.jsonl)")
	compare := fs.Bool("compare", false, "compare two record files: -compare old.jsonl new.jsonl")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare wants two record files"))
		}
		return compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	specs := workloads
	if *workload != "" {
		s := findWorkload(*workload)
		if s == nil {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		specs = []workloadSpec{*s}
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fail(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	cfg := runConfig{
		seconds: *seconds,
		par:     min(runtime.NumCPU(), 4),
		root:    root,
		outDir:  filepath.Join(root, "benchmark", "out"),
		procs:   procs,
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fail(err)
	}
	if *out == "" {
		*out = filepath.Join(cfg.outDir, "results.jsonl")
	}
	bin, err := buildDaemon(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("benchmark: nproc=%d GOMAXPROCS=%d P=%d %s seed=%d seconds=%g trace=%d (all daemon traffic crosses the host loopback)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.par, runtime.Version(), *seed, *seconds, *trace)

	all := resultLine{Correct: true, Metrics: results{}}
	for i := range specs {
		// A workload measured after another must not inherit its heap: a
		// runtime that holds on to freed spans allocates without page faults,
		// which makes Insert four times faster than in a fresh process, and
		// the harness runs every workload in a fresh one.
		debug.FreeOSMemory()
		rec, err := runWorkload(os.Stdout, &specs[i], *seed, *trace, cfg, bin)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", specs[i].name, err))
		}
		if err := appendRecord(*out, rec); err != nil {
			return fail(err)
		}
		all.Correct = all.Correct && rec.Correct
		all.Attempted += rec.Attempted
		all.Failed += rec.Failed
		for name, m := range rec.Metrics {
			m.Windows = nil
			if len(specs) > 1 {
				name = rec.Workload + "." + name
			}
			all.Metrics[name] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// runWorkload generates one workload's inputs, measures it in the
// chosen mode and prints its table to w.
func runWorkload(w io.Writer, spec *workloadSpec, seed int64, trace int, cfg runConfig, bin string) (*runRecord, error) {
	in, err := generateInputs(spec, seed)
	if err != nil {
		return nil, err
	}
	if err := in.checkDigest(); err != nil {
		return nil, err
	}
	in.computeOracle()
	fmt.Fprintf(w, "== %s: %d+%d rules, %d distinct headers, %d lookups per pass, inputs sha256 %s\n",
		spec.name, in.rsA.Len(), in.rsB.Len(), len(in.pool), len(in.order), in.digest[:16])

	var t tally
	var r results
	var notes []string
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
		r, notes, err = runTraced(in, cfg, bin, &t)
	} else {
		r, notes, err = runEndToEnd(in, cfg, bin, &t)
	}
	if err != nil {
		return nil, err
	}
	rec := &runRecord{
		Workload: spec.name, Seed: seed, Seconds: cfg.seconds, Trace: trace,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Par: cfg.par,
		GoVersion: runtime.Version(), Digest: in.digest,
		resultLine: resultLine{Attempted: t.attempted.Load(), Failed: t.failed.Load(), Metrics: results{}},
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	for _, d := range defs {
		m, ok := r[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		m.Unit = d.unit
		rec.Metrics[d.name] = m
		fmt.Fprintf(w, "  %-34s %14.4f %-11s", d.name, m.Value, d.unit)
		if len(m.Windows) > 1 {
			fmt.Fprintf(w, " windows %.4g, spread %.1f%%", m.Windows, 100*spread(m.Windows))
		}
		fmt.Fprintln(w)
	}
	for _, note := range notes {
		fmt.Fprintf(w, "  %s\n", note)
	}
	fmt.Fprintf(w, "  %-34s %14.4f %-11s %d of %d operations\n", "fail_pct",
		100*float64(rec.Failed)/float64(max(rec.Attempted, 1)), "%", rec.Failed, rec.Attempted)
	return rec, nil
}

func appendRecord(path string, rec *runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(rec); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// moduleRoot walks up from the working directory to the go.mod of
// module repro: the benchmark builds the daemon from there and keeps
// its outputs under benchmark/out.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(mod), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside module repro (no go.mod found)")
		}
		dir = parent
	}
}
