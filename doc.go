// Package repro is a Go reproduction of "Feature Study on a Programmable
// Network Traffic Classifier" (Guerra Pérez, Yang, Scott-Hayward, Sezer —
// IEEE SOCC 2016): a programmable multi-dimensional packet-classification
// lookup architecture based on the decomposition approach.
//
// # The Engine API
//
// Every lookup algorithm in the repository — the paper's decomposition
// architecture and all of its Table I comparators (linear search, TCAM,
// RFC, HiCuts, HyperCuts, cross-producting, DCFL, BV, ABV, TSS) — is
// constructed through one entry point and used through one interface:
//
//	eng, err := repro.New(
//		repro.WithBackend(repro.BackendTSS),
//		repro.WithRules(rs),
//	)
//	if err != nil { ... }
//	res, _ := eng.Lookup(repro.Header{SrcIP: 0x0a000001, DstPort: 80, Proto: repro.ProtoTCP})
//
// The default backend is BackendDecomposition, the paper's architecture.
// Its per-field algorithm set (the decision-control choice of Section
// III.A) is selected with WithConfig:
//
//	eng, err := repro.New(
//		repro.WithConfig(repro.Config{LPM: repro.LPMMultiBitTrie}),
//		repro.WithRules(rs),
//	)
//
// The decomposition engine searches each 5-tuple field with an
// independently selected engine (multi-bit trie, AM-Trie or binary
// search tree for IP prefixes; a register bank, segment tree or range
// tree for port ranges; direct index or hash table for the protocol),
// expresses per-field results as priority-ordered label lists, and
// combines labels against a Rule Filter to find the Highest-Priority
// Matching Rule — with full incremental rule update support.
//
// # Concurrency and the fast path
//
// Every Engine is safe for concurrent use. Lookups read an RCU-style
// snapshot — the read path takes no locks — while Insert and Delete
// serialize behind the snapshot writer and never stall in-flight
// lookups. LookupBatch classifies a whole batch against one consistent
// snapshot, amortizing the snapshot acquisition and the per-field label
// buffers.
//
// The decomposition lookup path is allocation-free in steady state:
// per-field label buffers are pooled, the ULI label-combination walk is
// iterative (no closures, no recursion), and the Rule Filter plus the
// partial-combination validity maps are flat open-addressing hash
// tables built at rule-update time and read-only during lookups.
// AllocsPerRun guard tests pin the 0 allocs/op property.
//
// # Vector burst path
//
// For batches the decomposition engine does not classify header-at-a-
// time: LookupBatchInto runs a stage-fused vector kernel. Bursts of at
// least 4 headers (smaller bursts fall back to the scalar loop, whose
// per-header overhead they cannot amortize) are processed one *stage*
// at a time across the whole burst — source LPM over all N headers,
// then destination LPM over all N, then ports and protocol, then the
// label combination and Rule Filter probes over all N — so each
// stage's tables stream through the cache once per burst instead of
// once per header. Per-field label lists land in a pooled
// structure-of-arrays slab (one label arena per field plus int32
// offsets, no per-header slice headers), and bursts larger than 256
// are chunked so the slab stays cache-resident.
//
//	out := make([]repro.Result, len(hs))
//	eng.LookupBatchInto(hs, out)        // 0 allocs/op, any composition
//
// LookupBatch is the convenience form (it allocates the result slice
// and delegates); LookupBatchInto is the steady-state form and is
// allocation-free on every composition: a flow-cached engine probes
// the cache for all N, compacts the misses into a pooled scratch
// burst, runs one fused lookup over just the misses and scatters the
// verdicts back; a sharded engine reuses one pooled result column
// across its replica merges; LookupBytesBatch feeds decoded frames
// through the same kernel. Burst sizes of 64 or more get the full
// fusion benefit; the benchmark ledger (go run ./benchmark) records the
// 64-header burst on every workload in its engine.batch64_ns,
// core.burst64_ns and shard.batch64_ns_x4 rows.
//
// # Raw-packet ingestion
//
// Lookups need not start from a parsed Header: every Engine also
// classifies straight off wire bytes. LookupBytes decodes one
// IPv4-over-Ethernet frame in place and classifies it; LookupBytesBatch
// runs a whole frame slab against one consistent snapshot:
//
//	res, err := eng.LookupBytes(frame)          // one Ethernet frame
//	n := eng.LookupBytesBatch(frames, out)      // burst of frames
//
// The decoders live in internal/packet and write into caller-provided
// header structs — no slicing of the input, no escapes, no per-frame
// allocation — so the raw path is 0 allocs/op in steady state
// (AllocsPerRun guards pin it; the ledger's engine.bytes64_ns and
// core.v6_burst64_ns rows record its cost). Frames that are too short, non-IP or otherwise
// undecodable yield a decode error from internal/packet (the batch
// form writes the zero Result for them and returns the number decoded)
// rather than a partial header. Flow-cached engines
// hash the decoded 5-tuple once and probe the cache with that raw key;
// sharded engines fan a decoded burst across replicas against their
// RCU snapshots. Classifier6.LookupBytes does the same for
// IPv6-over-Ethernet frames. This is the substrate for a future pcap
// or AF_PACKET front end: cmd/loadgen -raw replays schedules as
// synthesized frames through this path today.
//
// # Flow cache
//
// WithFlowCache(entries) puts a sharded, lock-free exact-match header
// cache in front of any engine:
//
//	eng, err := repro.New(
//		repro.WithRules(rs),
//		repro.WithShards(4),
//		repro.WithFlowCache(1<<16),
//	)
//
// Real traffic is Zipf-skewed — a few flows carry most packets — so
// caching the full classification verdict per exact 5-tuple turns the
// common case into a single hash probe (an order of magnitude faster
// than the full decomposition search; the ledger's acl10k_zipf_cached
// workload and flowcache.* rows measure it).
// Entries are generation-stamped: every completed Insert or Delete
// bumps the cache generation, so a lookup issued after an update
// returns can never see a pre-update verdict. Cached engines expose
// CacheStats (hits, misses, evictions, invalidations); the hit, miss
// and eviction counters are also surfaced through the ctl STATS
// response.
//
// # Stateful flow tracking
//
// WithFlowState(entries, ttl) wraps any engine composition in a
// sharded, lock-free conntrack layer — the stateful firewall primitive
// built over the stateless classifier:
//
//	eng, err := repro.New(
//		repro.WithRules(rs),
//		repro.WithFlowCache(1<<16),
//		repro.WithFlowState(1<<20, 5*time.Minute),
//	)
//
// Rules whose Action is ActionEstablish ("allow-established") install a
// flow entry when a forward packet matches: the entry is keyed by the
// direction-normalized 5-tuple, so it covers the reverse direction too,
// and subsequent packets of the flow — in either direction — are
// admitted by a single hash probe carrying the establishing rule's
// verdict, without consulting the classifier. That is how a reply
// packet with no matching rule of its own is accepted: connection
// state, not rule state, admits it. Entries expire ttl after their
// last hit (refresh is a wait-free atomic store on the probe path) and
// are generation-stamped like flow-cache lines: Insert, Delete and
// Replace invalidate all established flows in one generation bump, so
// a revoked rule cannot keep admitting traffic through stale state —
// unless WithFlowStatePreserve opts into keeping flows across rule
// updates, the conntrack behavior of a production firewall. Stateful
// engines expose StateStats (entries, installs, hits, misses,
// expiries, evictions, invalidations), surfaced through ctl STATS, the
// JSON admin API and /metrics; ctl table specs take a fourth
// state-slot field (name=backend[:shards[:cache[:state]]]), and the
// stateful probe path is allocation-free under the same //repro:noalloc
// regime as the lookup kernels.
//
// # Sharding
//
// WithShards(n) partitions the ruleset across n replicas of the
// selected backend:
//
//	eng, err := repro.New(
//		repro.WithBackend(repro.BackendTSS),
//		repro.WithRules(rs),
//		repro.WithShards(4),
//	)
//
// Each replica keeps its own RCU snapshot pair. Updates route to one
// replica by a hash of the rule ID, so per-update work shrinks with n;
// lookups fan out across the replicas and merge by priority, with
// LookupBatch running the replicas on parallel goroutines. Stats,
// memory maps and (for the decomposition backend) the modeled
// throughput aggregate across replicas.
//
// # Atomic ruleset snapshots
//
// A whole ruleset is a first-class unit, mirroring the paper's model of
// downloading a complete ruleset to the hardware. Engine.Snapshot
// exports the installed rules from one consistent snapshot (sorted by
// ascending rule ID), and Engine.Replace swaps the entire ruleset in
// one atomic step:
//
//	rules := eng.Snapshot()            // consistent export
//	_, err := eng.Replace(newRules)    // build aside, publish with one RCU swap
//	_, err = eng.Replace(nil)          // atomic reset
//
// Replace builds the new state fresh, off to the side, and publishes it
// as its last step with a single RCU pointer swap — on a sharded engine
// the whole replica set is rebuilt aside and installed with one atomic
// pointer store — so concurrent lookups observe either the complete old
// ruleset or the complete new one, never the intermediate states an
// Insert/Delete churn would expose. The old ruleset is dropped, not
// deleted rule by rule: a swap costs what building the new ruleset
// costs, the returned Cost is that download alone, and both rulesets
// are in memory until it returns. On error nothing has been published.
// Flow-cached and stateful engines invalidate with a single generation
// bump per swap, immediately after the inner publication; until that
// bump — one reader drain — a lookup can still be answered from a line
// or a flow that the old ruleset filled, so a burst straddling the swap
// may mix generations there, and none can once Replace has returned.
//
// The serialized form lives in internal/snapfile: a versioned,
// CRC-32-checksummed text format that round-trips byte-for-byte. The
// ctl protocol exposes the subsystem as SNAPSHOT (wire dump),
// SNAPSHOT SAVE / RESTORE (checkpoint files), RESET and SWAP (pipelined
// rule body, one atomic apply), and classifierd -snapshot-dir makes the
// daemon persistent: tables are saved on drain and restored on start,
// so a SIGTERM'd daemon comes back with its tables intact.
//
// # Serving
//
// The ctl protocol (internal/ctl, served by cmd/classifierd) exposes
// engines over TCP as named tables — each table its own backend and
// shard count — with batched MLOOKUP, pipelined BULK insert and the
// snapshot commands above, so one daemon serves heterogeneous
// workloads side by side. cmd/classifierctl is the matching one-shot
// CLI. The table lifecycle itself lives in internal/tables: an
// RCU-published registry (a single atomic pointer load resolves a
// table, writers clone-and-swap under a mutex) that every control
// surface shares.
//
// # Observability
//
// Each registry table carries an internal/metrics block —
// cache-line-padded atomic counters for lookups, updates, atomic swaps
// and errors, plus concurrent HDR latency histograms built on the same
// internal/hdr bucket geometry the workload-replay histograms use, so
// live-daemon quantiles and offline replay reports are directly
// comparable. Recording is wait-free (a few atomic adds per sample)
// and sits on the serving path without perturbing the allocation-free
// lookup kernels.
//
// Three surfaces read the same tables.TableStats record, so they
// cannot disagree: the ctl STATS response (engine pipeline stats,
// optional CACHE and STATE sections, and an OPS section with the
// serving-layer counters), a typed JSON admin API (GET/POST /v1/tables,
// DELETE /v1/tables/{name}, GET /v1/tables/{name}/stats), and a
// Prometheus text exposition at /metrics with per-table operation
// totals, latency quantile summaries, shard-balance gauges and modeled
// memory. The HTTP plane (internal/httpapi, stdlib-only) is enabled
// with classifierd's -http flag; classifierctl mirrors the typed
// records with its stats -json and tables -json commands.
//
// # Workload replay
//
// internal/workload generates and replays deterministic trace
// workloads: timestamped event schedules mixing lookups, incremental
// updates and atomic whole-ruleset swaps under five traffic models —
// uniform, Zipf-skewed popularity, bursty on/off arrivals, a
// locality-shift model whose hot set migrates mid-run (the flow-cache
// stress case), and a conntrack model that opens bidirectional
// connections with forward-first packet ordering and optional one-shot
// SYN-flood aggressors (the flow-state stress case). The same
// (ruleset, config) pair always yields the same
// schedule, so a schedule is a reproducible experiment: the conformance
// suite replays each one sequentially against every backend composition
// and asserts identical per-lookup verdict sequences.
//
// cmd/loadgen is the load driver: it replays a schedule either
// in-process against any Engine composition (backend × WithShards ×
// WithFlowCache × WithFlowState) or over TCP against a live
// classifierd, using N
// concurrent workers with an open-loop pacer — latency is measured from
// each event's scheduled arrival, so queueing delay is charged to the
// distribution rather than coordinating with the load. Updates apply in
// schedule order on a dedicated control lane, mirroring the paper's
// single decision-control channel; remote workers drain arrival backlog
// through pipelined LOOKUP writes. Results — HDR-style latency
// quantiles (p50/p90/p99/p999), achieved throughput and per-op error
// counts — print as one table row per model, and a replay with any
// failed operation exits non-zero.
//
// # Hardware model
//
// Operations on the decomposition backend report a hardware cost (clock
// cycles, memory lines) from a model of the paper's 200 MHz FPGA lookup
// domain, so the published update-time, lookup-time and throughput
// results can be regenerated; see PAPER.md in the repository root and
// cmd/lookupbench, which prints Tables I–II, Figs. 3–4 and the Section
// IV.D figures. The concrete *Classifier type (what New returns for
// BackendDecomposition) additionally exposes Stats, Memory,
// ModelThroughput and ModelLookupCycles. Baseline backends report update
// costs through the same download model (two cycles per line written)
// and their storage as a hardware memory map.
//
// # IPv6
//
// The engines are generic over the address width; New6 builds the same
// decomposition architecture over 128-bit prefixes (the Table I
// baselines are defined over the IPv4 5-tuple only). The default New6
// address engine is the split-64 design: each 128-bit prefix is
// decomposed into two bounded 64-bit LPM probes (address hi/lo halves)
// joined through a combination table, so an IPv6 lookup costs two trie
// walks plus one table index instead of a 128-level descent. IPv6 is
// first-class through the serving stack: Classifier6 has the same
// Snapshot/Replace/LookupBatch/LookupBytes surface, `TABLE CREATE
// <name> v6` makes a v6 table in classifierd (colon-hex rule lines and
// lookup addresses; the snapfile family attribute keeps checkpoints
// from being restored across address families), and the ledger's
// core.v6_burst64_ns row records the v6 burst path.
//
// # Checked invariants
//
// The concurrency and hot-path contracts above are machine-checked by
// reprolint, the repo's static-analysis suite (internal/lint, run via
// `go run ./cmd/reprolint ./...` and as a required CI step):
//
//   - rcusafe: a value read from an RCU store (rcu.Handle.Value), an
//     atomic.Pointer load, or an engine Snapshot is a published
//     snapshot shared with lock-free readers; any write to memory
//     reachable from it — field stores, slice-element writes, copy or
//     append into it — is flagged as a data race at analysis time.
//
//   - atomicfield: a struct field accessed through sync/atomic anywhere
//     in its package must be accessed that way everywhere; one plain
//     load of a generation counter reintroduces the torn read the
//     atomic was bought to prevent. Copying a sync/atomic wrapper-typed
//     field is flagged for the same reason.
//
//   - noalloc: functions carrying a //repro:noalloc directive in their
//     doc comment (the lookup fast path, the RCU read side, the flow
//     cache probe, the shard fan-out) must contain no allocation-
//     introducing constructs — make/new/literals, growing appends,
//     interface boxing, fmt calls, string building. This is the
//     build-time complement of the testing.AllocsPerRun guards, which
//     cannot run under -race; a meta-test additionally requires every
//     exported annotated function to have such a runtime guard in its
//     package.
//
//   - ctlerr: every statically-analyzable ctl response string and conn
//     write must lead with a protocol verb, keeping the line protocol's
//     first-token dispatch grammar closed.
//
// The internal packages implement the substrates: internal/core (the
// paper's architecture and its concurrent wrapper), internal/rcu (the
// snapshot store), internal/lpm, internal/rangematch and
// internal/exactmatch (the per-field engines of Table II),
// internal/baseline (the multi-dimensional comparators of Table I),
// internal/ruleset (ClassBench-style ACL/FW/IPC generators),
// internal/hwsim (the FPGA cycle and memory model) and internal/lint
// (the invariant analyzers behind cmd/reprolint).
package repro
