package repro

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lpm"
	"repro/internal/rule"
	"repro/internal/shard"
)

// Engine is the unified lookup-engine abstraction: one interface that the
// paper's decomposition architecture and every Table I baseline
// implement, so workloads can swap algorithms — the paper's core
// programmability claim — without changing caller code.
//
// Every Engine is safe for concurrent use. Lookups acquire an RCU-style
// snapshot (no locks on the read path) while Insert and Delete serialize
// behind the snapshot writer, so classification continues at full rate
// during rule updates. LookupBatch amortizes the snapshot acquisition
// over a whole batch and guarantees all headers see one consistent
// ruleset.
//
// Rules inserted through an Engine must carry a unique non-zero ID and a
// non-zero Priority (lower is better): backends that rebuild on update
// re-validate the whole ruleset, and implicit position-derived IDs would
// not survive a rebuild.
type Engine interface {
	// Backend identifies the algorithm behind this engine.
	Backend() Backend
	// Insert installs one rule; Delete removes one by ID. Backends
	// without native incremental update transparently rebuild, reporting
	// the full rebuild in the returned download cost.
	Insert(r Rule) (Cost, error)
	Delete(id int) (Cost, error)
	// Len returns the number of installed rules.
	Len() int
	// Lookup classifies one header; LookupBatch classifies a batch
	// against one consistent snapshot. LookupBatchInto is the
	// allocation-free form: it classifies into caller-owned memory
	// (out must hold at least len(hs) results), so pooled callers pay
	// zero allocations per batch in steady state. Batches of four or
	// more headers run the decomposition backend's stage-fused vector
	// kernel (see the package "Vector burst path" doc section).
	Lookup(h Header) (Result, Cost)
	LookupBatch(hs []Header) []Result
	LookupBatchInto(hs []Header, out []Result)
	// LookupBytes decodes a raw IPv4-over-Ethernet frame in place and
	// classifies it — the bytes-in/verdict-out ingestion path, which
	// never allocates on the decomposition backend. LookupBytesBatch
	// does the same for a frame slab against one consistent snapshot:
	// frames that fail to decode yield the zero Result at their index,
	// the return value is the number of frames decoded, and out must
	// hold at least len(frames) results.
	LookupBytes(frame []byte) (Result, error)
	LookupBytesBatch(frames [][]byte, out []Result) int
	// Memory reports the data-structure storage as hardware RAM blocks.
	Memory() MemoryMap
	// IncrementalUpdate reports whether Insert/Delete avoid a rebuild
	// (the Table I incremental-update column).
	IncrementalUpdate() bool
	// Snapshot exports the installed ruleset from one consistent
	// snapshot, sorted by ascending rule ID — the deterministic order
	// the snapshot file format serializes.
	Snapshot() []Rule
	// Replace atomically swaps the entire ruleset: the new state is
	// built fresh, off to the side, and published as the last step
	// with a single RCU pointer swap, so concurrent Lookup/LookupBatch
	// callers observe either the complete old ruleset or the complete
	// new one, never a mix, and the old rules are dropped rather than
	// deleted one by one. The rules follow the same contract as Insert
	// (unique non-zero IDs, non-zero priorities); nil or empty rules
	// reset the engine. On error nothing has been published and the
	// installed ruleset is untouched. The returned cost is the
	// download cost of the new ruleset only — it goes into fresh
	// banks, so there is no teardown term — mirroring the paper's
	// whole-ruleset download model (Fig. 3). While Replace runs, the
	// old and the new state are both in memory.
	Replace(rules []Rule) (Cost, error)
}

// Backend selects the algorithm behind an Engine: the paper's
// decomposition architecture or one of the Table I comparators.
type Backend int

// Engine backends.
const (
	// BackendDecomposition is the paper's architecture: per-field search
	// engines, label combination and rule filter. The default.
	BackendDecomposition Backend = iota + 1
	// BackendLinear is the brute-force O(N) reference.
	BackendLinear
	// BackendTCAM simulates a ternary CAM with range-to-prefix expansion.
	BackendTCAM
	// BackendRFC is Recursive Flow Classification.
	BackendRFC
	// BackendHiCuts is the HiCuts decision tree.
	BackendHiCuts
	// BackendHyperCuts is the multi-dimensional HyperCuts tree.
	BackendHyperCuts
	// BackendCrossProduct is cross-producting with lazy table
	// materialization.
	BackendCrossProduct
	// BackendDCFL is Distributed Crossproducting of Field Labels.
	BackendDCFL
	// BackendBV is the Lucent bit-vector scheme.
	BackendBV
	// BackendABV is Aggregated Bit Vectors.
	BackendABV
	// BackendTSS is Tuple Space Search.
	BackendTSS
)

// String returns the backend's display name (the Table I row).
func (b Backend) String() string {
	switch b {
	case BackendDecomposition:
		return "Decomposition"
	case BackendLinear:
		return "Linear"
	case BackendTCAM:
		return "TCAM"
	case BackendRFC:
		return "RFC"
	case BackendHiCuts:
		return "HiCuts"
	case BackendHyperCuts:
		return "HyperCuts"
	case BackendCrossProduct:
		return "CrossProducting"
	case BackendDCFL:
		return "DCFL"
	case BackendBV:
		return "BV"
	case BackendABV:
		return "ABV"
	case BackendTSS:
		return "TSS"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// Backends lists every available backend, decomposition first — the
// iteration order used by the conformance suite and the benchmarks.
func Backends() []Backend {
	return []Backend{
		BackendDecomposition,
		BackendLinear,
		BackendTCAM,
		BackendRFC,
		BackendHiCuts,
		BackendHyperCuts,
		BackendCrossProduct,
		BackendDCFL,
		BackendBV,
		BackendABV,
		BackendTSS,
	}
}

// ParseBackend resolves a backend from its flag spelling (case-
// insensitive; e.g. "tss", "hicuts", "decomposition").
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "decomposition", "decomp", "this-work", "thiswork":
		return BackendDecomposition, nil
	case "linear":
		return BackendLinear, nil
	case "tcam":
		return BackendTCAM, nil
	case "rfc":
		return BackendRFC, nil
	case "hicuts":
		return BackendHiCuts, nil
	case "hypercuts":
		return BackendHyperCuts, nil
	case "crossproduct", "crossproducting", "crossprod":
		return BackendCrossProduct, nil
	case "dcfl":
		return BackendDCFL, nil
	case "bv", "bitmap":
		return BackendBV, nil
	case "abv":
		return BackendABV, nil
	case "tss":
		return BackendTSS, nil
	default:
		return 0, fmt.Errorf("unknown backend %q", s)
	}
}

// Option configures New.
type Option func(*engineOptions)

type engineOptions struct {
	backend       Backend
	cfg           Config
	rules         *RuleSet
	optimize      bool
	shards        int
	flowCache     int
	state         int
	stateTTL      time.Duration
	statePreserve bool
}

// WithBackend selects the lookup algorithm; the default is
// BackendDecomposition.
func WithBackend(b Backend) Option {
	return func(o *engineOptions) { o.backend = b }
}

// WithConfig selects the per-field algorithm set for the decomposition
// backend (other backends ignore it).
func WithConfig(cfg Config) Option {
	return func(o *engineOptions) { o.cfg = cfg }
}

// WithRules pre-loads the engine with a rule set.
func WithRules(rs *RuleSet) Option {
	return func(o *engineOptions) { o.rules = rs }
}

// WithOptimize applies the decision controller's ruleset optimization
// (shadowed-rule removal, Section III.D) to the WithRules set before
// loading it.
func WithOptimize() Option {
	return func(o *engineOptions) { o.optimize = true }
}

// WithShards partitions the ruleset across n replicas of the selected
// backend, each with its own RCU snapshot pair. Updates are routed to
// one replica by a hash of the rule ID; lookups fan out across the
// replicas and merge by priority, with LookupBatch running the replicas
// on parallel goroutines. Stats, memory and modeled throughput are
// aggregated across the replicas. n = 1 (the default) builds the
// backend unwrapped.
//
// Rules should carry unique priorities (rulesets built by NewRuleSet
// from zero-priority rules always do): when two matching rules share a
// priority, the shard merge resolves the tie to the lowest rule ID,
// whereas an unsharded engine resolves it by insertion order.
func WithShards(n int) Option {
	return func(o *engineOptions) { o.shards = n }
}

// New builds an Engine from functional options:
//
//	eng, err := repro.New(
//		repro.WithBackend(repro.BackendTSS),
//		repro.WithRules(rs),
//	)
//
// With no options it returns an empty decomposition engine with the
// default configuration.
func New(opts ...Option) (Engine, error) {
	o := engineOptions{backend: BackendDecomposition, shards: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.shards < 1 {
		return nil, fmt.Errorf("repro: shard count %d, want >= 1", o.shards)
	}
	if err := validateFlowCache(o.flowCache); err != nil {
		return nil, err
	}
	if err := validateFlowState(o.state); err != nil {
		return nil, err
	}
	rules := o.rules
	if o.optimize && rules != nil {
		opt, _, err := OptimizeRules(rules)
		if err != nil {
			return nil, err
		}
		rules = opt
	}
	var eng Engine
	var err error
	if o.shards > 1 {
		eng, err = newSharded(o, rules)
	} else {
		eng, err = newSingle(o, rules)
	}
	if err != nil {
		return nil, err
	}
	if o.flowCache > 0 {
		eng = newFlowCached(eng, o.flowCache)
	}
	if o.state > 0 {
		// The state table wraps outermost: an established-flow hit skips
		// the cache probe and the classifier alike.
		eng = newFlowState(eng, o.state, o.stateTTL, o.statePreserve)
	}
	return eng, nil
}

// newSingle builds one unwrapped replica of the selected backend.
func newSingle(o engineOptions, rules *RuleSet) (Engine, error) {
	if o.backend == BackendDecomposition {
		return newDecomposition(o.cfg, rules)
	}
	mk, ok := baselineConstructor(o.backend)
	if !ok {
		return nil, fmt.Errorf("repro: unknown backend %d", int(o.backend))
	}
	return newBaselineEngine(o.backend, mk, rules)
}

// newSharded partitions the rules by shard.For and builds one replica
// per partition behind the shard wrapper.
func newSharded(o engineOptions, rules *RuleSet) (Engine, error) {
	parts := make([][]Rule, o.shards)
	if rules != nil {
		for _, r := range rules.Rules() {
			i := shard.For(r.ID, o.shards)
			parts[i] = append(parts[i], r)
		}
	}
	replicas := make([]shard.Engine, o.shards)
	for i := range replicas {
		var sub *RuleSet
		if len(parts[i]) > 0 {
			s, err := rule.NewSet(parts[i])
			if err != nil {
				return nil, err
			}
			sub = s
		}
		eng, err := newSingle(o, sub)
		if err != nil {
			return nil, err
		}
		replicas[i] = eng
	}
	// The factory hands Replace fresh, empty replicas of the same
	// backend/config so a whole-ruleset swap can build the next replica
	// set off to the side before its single atomic publish.
	factory := func() (shard.Engine, error) { return newSingle(o, nil) }
	inner, err := shard.New(replicas, factory)
	if err != nil {
		return nil, err
	}
	s := sharded{Sharded: inner, backend: o.backend}
	if o.backend == BackendDecomposition {
		return &shardedDecomposition{sharded: s}, nil
	}
	return &s, nil
}

// sharded tags the shard wrapper with its backend so it satisfies the
// full Engine interface.
type sharded struct {
	*shard.Sharded
	backend Backend
}

// Backend implements Engine.
func (s *sharded) Backend() Backend { return s.backend }

// shardedDecomposition additionally surfaces the hardware throughput
// model that only decomposition replicas carry, mirroring *Classifier.
type shardedDecomposition struct {
	sharded
}

// ModelThroughput reports the aggregate modeled forwarding rate of the
// parallel replicas.
func (s *shardedDecomposition) ModelThroughput() Throughput {
	tp, _ := s.AggregateThroughput()
	return tp
}

// New6 builds the IPv6 lookup domain from the same options. Only the
// decomposition backend classifies IPv6 (the Table I baselines are
// defined over the IPv4 5-tuple), so WithBackend must name it or be
// omitted, and WithRules (an IPv4 set) must be absent.
func New6(opts ...Option) (*Classifier6, error) {
	o := engineOptions{backend: BackendDecomposition, shards: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.backend != BackendDecomposition {
		return nil, fmt.Errorf("repro: backend %v does not support IPv6", o.backend)
	}
	if o.shards != 1 {
		return nil, fmt.Errorf("repro: WithShards is IPv4-only; the IPv6 domain is unsharded")
	}
	if o.flowCache != 0 {
		return nil, fmt.Errorf("repro: WithFlowCache is IPv4-only; the IPv6 domain is uncached")
	}
	if o.state != 0 {
		return nil, fmt.Errorf("repro: WithFlowState is IPv4-only; the IPv6 domain is stateless")
	}
	if o.rules != nil {
		return nil, fmt.Errorf("repro: WithRules carries IPv4 rules; insert Rule6 values instead")
	}
	if o.cfg.LPM == 0 {
		// The IPv6 fast path defaults to the split-64 decomposition: two
		// 64-bit LPM probes plus a combination table, instead of walking
		// a single 128-bit trie.
		o.cfg.LPM = core.LPMSplit64
	}
	inner, err := core.NewConcurrent[lpm.V6](o.cfg, nil)
	if err != nil {
		return nil, err
	}
	return &Classifier6{inner: inner}, nil
}

// baselineConstructor maps a backend to its fresh-instance constructor.
func baselineConstructor(b Backend) (func() baseline.Classifier, bool) {
	switch b {
	case BackendLinear:
		return func() baseline.Classifier { return baseline.NewLinear() }, true
	case BackendTCAM:
		return func() baseline.Classifier { return baseline.NewTCAM() }, true
	case BackendRFC:
		return func() baseline.Classifier { return baseline.NewRFC() }, true
	case BackendHiCuts:
		return func() baseline.Classifier { return baseline.NewHiCuts(baseline.DefaultHiCutsConfig()) }, true
	case BackendHyperCuts:
		return func() baseline.Classifier { return baseline.NewHyperCuts(baseline.DefaultHyperCutsConfig()) }, true
	case BackendCrossProduct:
		return func() baseline.Classifier { return baseline.NewCrossProduct() }, true
	case BackendDCFL:
		return func() baseline.Classifier { return baseline.NewDCFL() }, true
	case BackendBV:
		return func() baseline.Classifier { return baseline.NewBitmapIntersection() }, true
	case BackendABV:
		return func() baseline.Classifier { return baseline.NewABV() }, true
	case BackendTSS:
		return func() baseline.Classifier { return baseline.NewTSS() }, true
	default:
		return nil, false
	}
}

// validateEngineRule enforces the Engine rule contract shared by every
// backend: structural validity plus explicit identity, so incremental
// inserts and rebuild-on-update backends agree on rule identity.
func validateEngineRule(r Rule) error {
	if err := validateRuleIdentity(r.ID, r.Priority); err != nil {
		return err
	}
	return r.Validate()
}

// validateReplaceRules checks a whole Replace candidate list up front —
// per-rule contract plus ID uniqueness — so backends can reject a bad
// list before touching any state.
func validateReplaceRules(rules []Rule) error {
	seen := make(map[int]struct{}, len(rules))
	for i := range rules {
		if err := validateEngineRule(rules[i]); err != nil {
			return err
		}
		if _, dup := seen[rules[i].ID]; dup {
			return fmt.Errorf("rule %d: %w", rules[i].ID, core.ErrDuplicateRule)
		}
		seen[rules[i].ID] = struct{}{}
	}
	return nil
}

// validateRuleIdentity is the identity half of the Engine rule contract,
// shared with the IPv6 path.
func validateRuleIdentity(id, priority int) error {
	if id == 0 {
		return fmt.Errorf("repro: rule must carry a non-zero ID")
	}
	if priority == 0 {
		return fmt.Errorf("repro: rule %d must carry a non-zero priority", id)
	}
	return nil
}
