//go:build linux

package main

import (
	"time"

	repro "repro"
	"repro/internal/rule"
	"repro/internal/ruleset"
	"repro/internal/workload"
)

// burstSize is the frame-slab size of every library phase and the
// MLOOKUP batch of the daemon throughput phase.
const burstSize = 64

// stateTTL is the flow-state idle lifetime of the library engine; it
// outlives a whole run, so no verdict depends on the wall clock.
const stateTTL = 30 * time.Second

// workloadSpec is one benchmark workload: the generator settings its
// inputs are made from and the engine composition they are served by.
type workloadSpec struct {
	name string
	why  string // recorded in BENCHMARK.json

	family ruleset.Family
	rules  int
	// establishEvery turns every n-th rule into allow-established (0
	// leaves the generated actions alone).
	establishEvery int

	model  workload.Model
	events int     // schedule length: lookups plus update events
	pool   int     // workload.Config.HeaderPool
	zipf   float64 // ZipfSkew
	conns  int     // ModelConntrack live connections
	pkts   int     // ModelConntrack packets per connection
	flood  float64 // ModelConntrack one-shot flow share

	cache int // WithFlowCache slots
	state int // WithFlowState slots

	// baselines adds the Table I comparators to the traced run. One
	// workload carries them: they are context, not layers of the system,
	// and RFC cannot hold a wildcard-heavy FW ruleset at all.
	baselines bool
}

// updateRatio is the share of schedule events that are updates; the
// update phase draws its insert rules from them.
const updateRatio = 0.02

// workloads lists the four workloads in report order. Slot counts of
// the cache and state tables are sized against the replayed sequence,
// not the issue's 65 536: the timed loops replay a finite sequence
// cyclically, and a table that could hold a whole cycle would turn the
// second pass into all hits.
var workloads = []workloadSpec{
	{
		name: "acl10k_uniform",
		why: "ACL-10K, 65536 headers visited uniformly on the bare engine: specific prefixes, " +
			"so the five field engines and the RCU shell do the work; cache and state layers are absent",
		family: ruleset.ACL, rules: 10000,
		model: workload.ModelUniform, events: 262144, pool: 65536,
		baselines: true,
	},
	{
		name: "fw10k_uniform",
		why: "FW-10K, same traffic: wildcard-heavy fields make label lists long, so label combination " +
			"and the Rule Filter do the work; a field-engine speed-up should barely move it",
		family: ruleset.FW, rules: 10000,
		model: workload.ModelUniform, events: 262144, pool: 65536,
	},
	{
		name: "acl10k_zipf_cached",
		why: "the ACL-10K rules behind a flow cache under Zipf(1.2) traffic over 4x more flows than slots: " +
			"the cache and the frame decoder do the work and the classifier little; updates empty the cache",
		family: ruleset.ACL, rules: 10000,
		model: workload.ModelZipf, events: 524288, pool: 262144, zipf: 1.2,
		cache: 32768,
	},
	{
		name: "fw5k_conntrack",
		why: "FW-5K with every second rule allow-established behind a flow-state table, connection-shaped " +
			"traffic with 10% one-shot flood flows: the state table does the work and is Put-heavy, unlike the cache",
		family: ruleset.FW, rules: 5000, establishEvery: 2,
		model: workload.ModelConntrack, events: 393216, pool: 65536,
		conns: 4096, pkts: 32, flood: 0.1,
		state: 16384,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// engineOptions is the library composition of the workload over rs.
func (s *workloadSpec) engineOptions(rs *rule.Set) []repro.Option {
	opts := []repro.Option{repro.WithRules(rs)}
	if s.cache > 0 {
		opts = append(opts, repro.WithFlowCache(s.cache))
	}
	if s.state > 0 {
		opts = append(opts, repro.WithFlowState(s.state, stateTTL))
	}
	return opts
}

// metricDef names one reported metric. BENCHMARK.json repeats these
// lists with the regression bounds; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the library or the daemon sees, measured
// with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"lookup_mlps", "Mlookups/s", higher},
	{"lookup_par_speedup", "x", higher},
	{"lookup_upd_kept_pct", "%", higher},
	{"swap_ms", "ms", lower},
	{"daemon_klps", "Klookups/s", higher},
	{"daemon_rtt_p50_us", "us", lower},
	{"daemon_p50_us_at_5k", "us", lower},
	{"model_mpps", "Mpps", higher},
	{"model_mem_kib", "KiB", lower},
	{"daemon_rss_mib", "MiB", lower},
}

// perLayer is the traced run's output, one group per module. A layer a
// workload's composition does not contain reads 0.
var perLayer = []metricDef{
	{"packet.decode_ns", "ns", lower},
	{"packet.decode_fail", "count", lower},

	{"fwstate.get_hit_ns", "ns", lower},
	{"fwstate.get_miss_ns", "ns", lower},
	{"fwstate.put_ns", "ns", lower},
	{"fwstate.hit_rate", "ratio", higher},
	{"fwstate.installs", "count", lower},
	{"fwstate.evictions", "count", lower},
	{"fwstate.invalidations", "count", lower},

	{"flowcache.get_hit_ns", "ns", lower},
	{"flowcache.get_miss_ns", "ns", lower},
	{"flowcache.put_ns", "ns", lower},
	{"flowcache.hit_rate", "ratio", higher},
	{"flowcache.evictions", "count", lower},
	{"flowcache.invalidations", "count", lower},

	{"rcu.acquire_release_ns", "ns", lower},
	{"rcu.acquire_release_par_ns", "ns", lower},
	{"rcu.update_us", "us", lower},

	{"lpm.mbt.src_ns", "ns", lower},
	{"lpm.mbt.dst_ns", "ns", lower},
	{"lpm.mbt.cycles", "cycles", lower},
	{"lpm.bst.src_ns", "ns", lower},
	{"lpm.bst.dst_ns", "ns", lower},
	{"lpm.bst.cycles", "cycles", lower},
	{"lpm.amtrie.src_ns", "ns", lower},
	{"lpm.amtrie.dst_ns", "ns", lower},
	{"lpm.amtrie.cycles", "cycles", lower},

	{"rangematch.regbank.dport_ns", "ns", lower},
	{"rangematch.regbank.cycles", "cycles", lower},
	{"rangematch.segtree.dport_ns", "ns", lower},
	{"rangematch.segtree.cycles", "cycles", lower},
	{"rangematch.rangetree.dport_ns", "ns", lower},
	{"rangematch.rangetree.cycles", "cycles", lower},

	{"exactmatch.direct.ns", "ns", lower},
	{"exactmatch.hash.ns", "ns", lower},

	{"label.list_len_mean", "count", lower},
	{"label.list_len_max", "count", lower},

	{"core.lookup_ns", "ns", lower},
	{"core.burst64_ns", "ns", lower},
	{"core.combine_self_ns", "ns", lower},
	{"core.probes_per_lookup", "count", lower},
	{"core.first_hit_probes_per_lookup", "count", lower},
	{"core.cycles_per_lookup", "cycles", lower},
	{"core.concurrent_lookup_ns", "ns", lower},
	{"core.v6_burst64_ns", "ns", lower},
	{"core.insert_us", "us", lower},
	{"core.delete_us", "us", lower},
	{"core.build_ms", "ms", lower},
	{"core.replace_ms", "ms", lower},

	{"engine.lookup_ns", "ns", lower},
	{"engine.batch64_ns", "ns", lower},
	{"engine.bytes64_ns", "ns", lower},
	{"engine.cache_wrap_self_ns", "ns", lower},
	{"engine.state_wrap_self_ns", "ns", lower},
	{"engine.allocs_per_burst", "count", lower},
	{"engine.update_p50_us", "us", lower},
	{"engine.replace_ms", "ms", lower},
	{"engine.snapshot_ms", "ms", lower},

	{"shard.batch64_ns_x4", "ns", lower},
	{"shard.replace_ms_x4", "ms", lower},
	{"shard.mem_kib_x4", "KiB", lower},

	{"baseline.linear_ns", "ns", lower},
	{"baseline.tcam_ns", "ns", lower},
	{"baseline.rfc_ns", "ns", lower},
	{"baseline.hicuts_ns", "ns", lower},
	{"baseline.tss_ns", "ns", lower},

	{"rule.oracle_match_ns", "ns", lower},

	{"hwsim.model_ns_per_pkt", "ns", lower},
	{"hwsim.model_vs_wall_ratio", "ratio", lower},

	{"ctl.self_ns_per_lookup", "ns", lower},
	{"ctl.mlookup64_call_p50_us", "us", lower},
	{"ctl.pipeline16_klps", "Klookups/s", higher},
	{"ctl.lookup_2conn_klps", "Klookups/s", higher},
	{"ctl.lookup_rtt_p99_us", "us", lower},
	{"ctl.p99_us_at_5k", "us", lower},
	{"ctl.p50_us_at_40k", "us", lower},
	{"ctl.p99_us_at_40k", "us", lower},
	{"ctl.backlog_max_at_40k", "count", lower},
	{"ctl.gen_late_p99_us", "us", lower},
	{"ctl.insert_rtt_p50_us", "us", lower},
	{"ctl.bulk_load_ms", "ms", lower},
	{"ctl.swap_ms", "ms", lower},
	{"ctl.stats_rtt_us", "us", lower},
	{"ctl.errors", "count", lower},

	{"net.echo_rtt_p50_us", "us", lower},

	{"tables.resolve_ns", "ns", lower},
	{"tables.create_ms", "ms", lower},

	{"metrics.hist_record_ns", "ns", lower},
	{"metrics.counter_inc_par_ns", "ns", lower},

	{"httpapi.metrics_scrape_ms", "ms", lower},
	{"httpapi.stats_ms", "ms", lower},

	{"snapfile.write_ms", "ms", lower},
	{"snapfile.read_ms", "ms", lower},

	{"trace.lib_sum_ratio", "ratio", higher},
	{"trace.daemon_sum_ratio", "ratio", higher},
	{"trace.overhead_pct", "%", lower},
}
