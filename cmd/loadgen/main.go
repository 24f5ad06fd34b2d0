// Command loadgen replays deterministic trace workloads — timestamped
// schedules mixing lookups, incremental updates and atomic whole-ruleset
// swaps under five traffic models (uniform, zipf, bursty, shift,
// conntrack; see repro/internal/workload) — against either an in-process
// engine composition (any backend × shards × flow cache × flow state) or
// a live classifierd over the ctl protocol, and reports HDR-style
// latency distributions (p50/p90/p99/p999), achieved throughput and
// per-op error counts.
//
// Usage:
//
//	loadgen -model zipf -duration 5s
//	loadgen -model all -events 10000 -duration 1s -backend tss -shards 4
//	loadgen -model shift -flowcache 65536 -update-ratio 0.05 -swaps 2
//	loadgen -model zipf -raw -batch 64
//	loadgen -model conntrack -fwstate 65536 -establish 0.3 -flood 0.1 -swaps 2
//	loadgen -addr 127.0.0.1:9099 -model shift -workers 4 -batch 32
//
// The conntrack scenario is the stateful composition's workload: with
// -fwstate the engine tracks established flows, -establish rewrites that
// fraction of the ruleset's actions to allow-established so forward
// packets install flow state, the model's connection churn revisits both
// directions of live flows (state hits), -flood interleaves one-shot
// SYN-flood flows that install but never hit, and -swaps exercises
// swap-while-connections-live invalidation. A stateful run prints the
// flow-state installs, hits and hit rate under its row.
//
// The replay is open loop: every event carries a scheduled arrival
// offset, N workers pace their lookup stripes against the wall clock,
// and latency is measured from the scheduled arrival — so queueing delay
// when the target falls behind is charged to the distribution instead of
// silently coordinating with the load (no coordinated omission). Updates
// run in schedule order on a dedicated control lane, the paper's single
// decision-control channel. Remote workers each hold their own ctl
// connection and drain arrival backlog through pipelined LOOKUP writes
// (-batch).
//
// With -raw (in-process only) every lookup worker synthesizes its
// headers into Ethernet+IPv4 frame slabs and classifies them through
// LookupBytesBatch — the zero-allocation raw ingress path.
//
// loadgen exits non-zero when any replayed operation failed. It records
// no performance trajectory: that is the benchmark ledger's job
// (go run ./benchmark).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	repro "repro"
	"repro/internal/ctl"
	"repro/internal/ruleset"
	"repro/internal/workload"
)

func main() {
	if _, err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

// options carries the parsed flag set.
type options struct {
	models   []workload.Model
	events   int
	duration time.Duration
	seed     int64

	family   ruleset.Family
	size     int
	rules    string
	zipf     float64
	pool     int
	update   float64
	swaps    int
	burstOn  time.Duration
	burstOff time.Duration
	shifts   int

	workers int
	batch   int

	backend   repro.Backend
	shards    int
	flowCache int
	state     int
	establish float64
	flood     float64
	raw       bool

	addr  string
	table string
}

// outcome is one model's replay: its report and, when the in-process
// engine tracks flow state, the state counters after the replay.
type outcome struct {
	model workload.Model
	rep   *workload.Report
	state *repro.FlowStateStats
}

// run executes one loadgen invocation and returns each model's outcome;
// split from main for testing.
func run(args []string, out io.Writer) ([]outcome, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		modelF    = fs.String("model", "zipf", "traffic model: uniform, zipf, bursty, shift, conntrack — comma-separated list or 'all'")
		events    = fs.Int("events", 50000, "events per model run")
		duration  = fs.Duration("duration", 5*time.Second, "schedule horizon (arrival offsets span it)")
		seed      = fs.Int64("seed", 1, "generation seed")
		familyF   = fs.String("family", "acl", "generated ruleset family: acl, fw or ipc")
		size      = fs.Int("size", 1000, "generated ruleset size")
		rulesPath = fs.String("rules", "", "ClassBench ruleset file (overrides -family/-size)")
		zipfS     = fs.Float64("zipf", 1.2, "Zipf skew s for the skewed models (> 1)")
		pool      = fs.Int("pool", 4096, "distinct flows in the header pool")
		update    = fs.Float64("update-ratio", 0.02, "fraction of events that are rule updates")
		swaps     = fs.Int("swaps", 2, "whole-ruleset swap events per run")
		burstOn   = fs.Duration("burst-on", 50*time.Millisecond, "bursty model on-window")
		burstOff  = fs.Duration("burst-off", 50*time.Millisecond, "bursty model off-window")
		shifts    = fs.Int("shifts", 3, "hot-set migrations for the shift model")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent lookup workers")
		batch     = fs.Int("batch", 16, "max overdue lookups drained per batched call (1 disables)")
		backendF  = fs.String("backend", "decomposition", "in-process backend (see repro.ParseBackend)")
		shards    = fs.Int("shards", 1, "in-process shard replicas")
		flowCache = fs.Int("flowcache", 0, "in-process flow-cache slots (0 disables)")
		state     = fs.Int("fwstate", 0, "in-process flow-state (conntrack) slots (0 disables)")
		establish = fs.Float64("establish", 0, "fraction of ruleset actions rewritten to allow-established [0,1]")
		flood     = fs.Float64("flood", 0, "conntrack model SYN-flood aggressor ratio [0,1]")
		raw       = fs.Bool("raw", false, "replay lookups as synthesized Ethernet frames through LookupBytesBatch (in-process only)")
		addr      = fs.String("addr", "", "replay against a live classifierd at this address instead of in-process")
		table     = fs.String("table", "", "remote table to replay into (default: the connection default)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o := options{
		events: *events, duration: *duration, seed: *seed,
		size: *size, rules: *rulesPath, zipf: *zipfS, pool: *pool,
		update: *update, swaps: *swaps, burstOn: *burstOn, burstOff: *burstOff,
		shifts: *shifts, workers: *workers, batch: *batch,
		shards: *shards, flowCache: *flowCache, state: *state,
		establish: *establish, flood: *flood, raw: *raw,
		addr: *addr, table: *table,
	}
	if o.raw && o.addr != "" {
		return nil, fmt.Errorf("-raw replays in-process only; drop -addr")
	}
	if o.state != 0 && o.addr != "" {
		return nil, fmt.Errorf("-fwstate composes the in-process engine; drop -addr (create a stateful remote table instead)")
	}
	if o.establish < 0 || o.establish > 1 {
		return nil, fmt.Errorf("-establish %v, want [0,1]", o.establish)
	}
	var err error
	if o.models, err = parseModels(*modelF); err != nil {
		return nil, err
	}
	if o.family, err = ruleset.ParseFamily(*familyF); err != nil {
		return nil, err
	}
	if o.backend, err = repro.ParseBackend(*backendF); err != nil {
		return nil, err
	}
	if o.workers < 1 {
		o.workers = 1
	}
	if o.events < 1 {
		return nil, fmt.Errorf("-events %d, want >= 1", o.events)
	}

	rs, err := loadRuleset(o)
	if err != nil {
		return nil, err
	}
	if o.establish > 0 {
		if rs, err = establishingRuleset(rs, o.establish); err != nil {
			return nil, err
		}
	}
	outcomes := make([]outcome, 0, len(o.models))
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\ttarget\tevents\telapsed\tev/s\tlookup p50\tp90\tp99\tp999\terrors")
	opErrors := 0
	for _, m := range o.models {
		oc, err := runModel(o, m, rs, tw)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", m, err)
		}
		opErrors += oc.rep.TotalErrors()
		outcomes = append(outcomes, oc)
	}
	tw.Flush()
	// Per-op failures are printed in the error column, but a replay that
	// errored is a failed run: CI smoke must go red, not rely on someone
	// reading the column.
	if opErrors > 0 {
		return nil, fmt.Errorf("replay finished with %d operation error(s); see the error columns above", opErrors)
	}
	return outcomes, nil
}

// runModel generates one schedule and replays it against the configured
// target, printing one summary row and returning its outcome.
func runModel(o options, m workload.Model, rs *repro.RuleSet, tw *tabwriter.Writer) (outcome, error) {
	sched, err := workload.Generate(rs, workload.Config{
		Model: m, Events: o.events, Duration: o.duration, Seed: o.seed,
		ZipfSkew: o.zipf, HeaderPool: o.pool, UpdateRatio: o.update,
		Swaps: o.swaps, Family: o.family,
		BurstOn: o.burstOn, BurstOff: o.burstOff, Shifts: o.shifts,
		FloodRatio: o.flood,
	})
	if err != nil {
		return outcome{}, err
	}
	cfg := workload.ReplayConfig{Batch: o.batch}
	target := "in-process"
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	if o.addr != "" {
		target = o.addr
		// One connection per worker plus the control lane: a ctl client
		// is sequential, so concurrency needs connection parallelism.
		for i := 0; i < o.workers+1; i++ {
			client, err := ctl.Dial(o.addr)
			if err != nil {
				return outcome{}, err
			}
			closers = append(closers, client)
			if o.table != "" {
				if err := client.TableUse(o.table); err != nil {
					return outcome{}, err
				}
			}
			t := workload.ClientTarget{C: client}
			if i == o.workers {
				cfg.Control = t
			} else {
				cfg.Lookups = append(cfg.Lookups, t)
			}
		}
	}
	var eng repro.Engine
	if o.addr == "" {
		eng, err = repro.New(repro.WithBackend(o.backend),
			repro.WithShards(o.shards), repro.WithFlowCache(o.flowCache),
			repro.WithFlowState(o.state, 0))
		if err != nil {
			return outcome{}, err
		}
		t := workload.EngineTarget{Eng: eng}
		if o.raw {
			// The raw target reuses its frame slab, so each worker needs
			// its own; updates keep the shared pre-parsed control lane.
			target = "in-process raw"
			for i := 0; i < o.workers; i++ {
				cfg.Lookups = append(cfg.Lookups, &workload.RawEngineTarget{Eng: eng})
			}
		} else {
			for i := 0; i < o.workers; i++ {
				cfg.Lookups = append(cfg.Lookups, t)
			}
		}
		cfg.Control = t
	}
	rep, err := workload.Replay(sched, cfg)
	if err != nil {
		return outcome{}, err
	}
	oc := outcome{model: m, rep: rep}
	lk := rep.Ops[workload.OpLookup]
	if lk == nil {
		lk = &workload.OpStats{}
	}
	fmt.Fprintf(tw, "%s\t%s\t%d\t%v\t%.0f\t%v\t%v\t%v\t%v\t%d\n",
		m, target, o.events, rep.Elapsed.Round(time.Millisecond), rep.EventsPerSec(),
		lk.Latency.Quantile(0.50), lk.Latency.Quantile(0.90),
		lk.Latency.Quantile(0.99), lk.Latency.Quantile(0.999), rep.TotalErrors())
	if rep.FirstError != nil {
		fmt.Fprintf(tw, "\tfirst error: %v\n", rep.FirstError)
	}
	if ss, ok := eng.(interface{ StateStats() repro.FlowStateStats }); ok {
		st := ss.StateStats()
		oc.state = &st
		fmt.Fprintf(tw, "\tflow state: %d installs, %d hits, %.1f%% hit rate\n",
			st.Installs, st.Hits, 100*st.HitRate())
	}
	return oc, nil
}

// parseModels decodes the -model flag: a comma-separated list or "all".
func parseModels(s string) ([]workload.Model, error) {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return workload.Models(), nil
	}
	var out []workload.Model
	for _, part := range strings.Split(s, ",") {
		m, err := workload.ParseModel(part)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-model wants at least one model")
	}
	return out, nil
}

// loadRuleset builds the base ruleset from -rules or the generator.
func loadRuleset(o options) (*repro.RuleSet, error) {
	if o.rules != "" {
		f, err := os.Open(o.rules)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return repro.ParseRules(f)
	}
	return repro.GenerateRules(repro.GenConfig{Family: repro.Family(o.family), Size: o.size, Seed: o.seed})
}

// establishingRuleset rewrites a deterministic ratio of the ruleset's
// actions to allow-established so the stateful replay has rules that
// install flow state. Every ⌈1/ratio⌉-th rule flips, spreading
// establishers across priorities instead of clustering them.
func establishingRuleset(rs *repro.RuleSet, ratio float64) (*repro.RuleSet, error) {
	src := rs.Rules()
	rules := make([]repro.Rule, len(src))
	copy(rules, src)
	stride := int(1 / ratio)
	if stride < 1 {
		stride = 1
	}
	for i := range rules {
		if i%stride == 0 {
			rules[i].Action = repro.ActionEstablish
		}
	}
	return repro.NewRuleSet(rules)
}
