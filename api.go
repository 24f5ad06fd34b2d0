package repro

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/hwsim"
	"repro/internal/lpm"
	"repro/internal/packet"
	"repro/internal/rule"
	"repro/internal/ruleset"
)

// Rule model, re-exported from the internal rule package so callers build
// rules without importing internals.
type (
	// Rule is a 5-tuple classification rule with first-match priority.
	Rule = rule.Rule
	// Header is the 5-tuple lookup point.
	Header = rule.Header
	// Prefix is an IPv4 prefix match.
	Prefix = rule.Prefix
	// PortRange is an inclusive port interval match.
	PortRange = rule.PortRange
	// ProtoMatch is an exact-or-wildcard protocol match.
	ProtoMatch = rule.ProtoMatch
	// Action is a rule verdict.
	Action = rule.Action
	// RuleSet is an ordered rule collection with a linear-scan oracle.
	RuleSet = rule.Set
	// Rule6 and Header6 are the IPv6 counterparts.
	Rule6 = rule.Rule6
	// Header6 is the IPv6 5-tuple lookup point.
	Header6 = rule.Header6
	// Addr6 is a 128-bit IPv6 address.
	Addr6 = rule.Addr6
	// Prefix6 is an IPv6 prefix match.
	Prefix6 = rule.Prefix6
)

// Re-exported rule actions.
const (
	ActionPermit = rule.ActionPermit
	ActionDeny   = rule.ActionDeny
	ActionQueue  = rule.ActionQueue
	ActionMirror = rule.ActionMirror
	ActionCount  = rule.ActionCount
	// ActionEstablish ("allow-established") permits the packet and asks
	// a WithFlowState engine to install a flow entry covering both
	// directions, so return traffic is accepted by state.
	ActionEstablish = rule.ActionEstablish
)

// Re-exported protocol numbers.
const (
	ProtoICMP = rule.ProtoICMP
	ProtoTCP  = rule.ProtoTCP
	ProtoUDP  = rule.ProtoUDP
)

// FullPortRange matches every port.
func FullPortRange() PortRange { return rule.FullPortRange() }

// ExactPort matches a single port.
func ExactPort(p uint16) PortRange { return rule.ExactPort(p) }

// ExactProto matches a single protocol value.
func ExactProto(v uint8) ProtoMatch { return rule.ExactProto(v) }

// AnyProto matches every protocol value.
func AnyProto() ProtoMatch { return rule.AnyProto() }

// ParsePrefix parses "a.b.c.d/len" notation.
func ParsePrefix(s string) (Prefix, error) { return rule.ParsePrefix(s) }

// ParsePrefix6 parses colon-hex IPv6 prefix notation (eight explicit
// hex groups, "hhhh:...:hhhh/len").
func ParsePrefix6(s string) (Prefix6, error) { return rule.ParsePrefix6(s) }

// ParseRule6 parses one ClassBench-style IPv6 rule line.
func ParseRule6(line string) (Rule6, error) { return rule.ParseRule6(line) }

// MustParsePrefix parses a prefix, panicking on malformed input; intended
// for literals in examples and tests.
func MustParsePrefix(s string) Prefix {
	p, err := rule.ParsePrefix(s)
	if err != nil {
		panic(fmt.Sprintf("repro: bad prefix literal %q: %v", s, err))
	}
	return p
}

// ParseRules reads a ClassBench-format ruleset.
func ParseRules(r io.Reader) (*RuleSet, error) { return rule.ParseSet(r) }

// WriteRules emits a ruleset in ClassBench format.
func WriteRules(w io.Writer, s *RuleSet) error { return rule.WriteSet(w, s) }

// NewRuleSet builds a validated rule set; IDs and priorities default to
// position order.
func NewRuleSet(rules []Rule) (*RuleSet, error) { return rule.NewSet(rules) }

// ParsePacket extracts the IPv4 5-tuple from an Ethernet frame.
func ParsePacket(frame []byte) (Header, error) { return packet.ParseEthernet(frame) }

// ParseIPv4Packet extracts the 5-tuple from a raw IPv4 packet.
func ParseIPv4Packet(pkt []byte) (Header, error) { return packet.ParseIPv4(pkt) }

// Configuration, re-exported from the core package.
type (
	// Config selects the per-field algorithm set (the decision-control
	// choice of Section III.A).
	Config = core.Config
	// Result is the outcome of one lookup.
	Result = core.Result
	// Stats aggregates lookup-domain statistics.
	Stats = core.Stats
	// Cost is a hardware operation cost (cycles, memory lines).
	Cost = hwsim.Cost
	// Throughput is the modeled forwarding performance.
	Throughput = core.Throughput
	// MemoryMap lists the occupied hardware RAM blocks.
	MemoryMap = hwsim.MemoryMap
)

// Engine selections.
const (
	LPMMultiBitTrie     = core.LPMMultiBitTrie
	LPMBinarySearchTree = core.LPMBinarySearchTree
	LPMAMTrie           = core.LPMAMTrie
	LPMSplit64          = core.LPMSplit64

	RangeRegisterBank = core.RangeRegisterBank
	RangeSegmentTree  = core.RangeSegmentTree
	RangeRangeTree    = core.RangeRangeTree

	ExactDirectIndex = core.ExactDirectIndex
	ExactHashTable   = core.ExactHashTable

	CombinePruned     = core.CombinePruned
	CombineExhaustive = core.CombineExhaustive
)

// Classifier is the programmable IPv4 lookup domain — the decomposition
// architecture behind BackendDecomposition. It implements Engine, plus
// the hardware-model methods (stats, memory map, modeled throughput) that
// only the paper's architecture can report.
//
// All methods are safe for concurrent use: lookups acquire an RCU
// snapshot and never lock, while Insert/Delete/BuildFromSet serialize
// behind the snapshot writer.
type Classifier struct {
	inner *core.Concurrent[lpm.V4]
}

// NewClassifier returns a classifier for the configuration, optionally
// pre-loaded with a rule set (nil starts empty).
//
// Deprecated: use New with WithConfig and WithRules; NewClassifier
// remains as a thin wrapper over the same engine. Note one behavior
// change from the pre-Engine API: Insert now enforces the shared Engine
// rule contract, so rules with a zero ID or zero priority are rejected
// instead of silently accepted.
func NewClassifier(cfg Config, rules *RuleSet) (*Classifier, error) {
	return newDecomposition(cfg, rules)
}

// newDecomposition is the BackendDecomposition constructor shared by New
// and the deprecated NewClassifier.
func newDecomposition(cfg Config, rules *RuleSet) (*Classifier, error) {
	inner, err := core.NewConcurrentV4(cfg, rules)
	if err != nil {
		return nil, err
	}
	return &Classifier{inner: inner}, nil
}

// Backend implements Engine.
func (c *Classifier) Backend() Backend { return BackendDecomposition }

// IncrementalUpdate implements Engine: the decomposition architecture
// updates in place (Section III.D).
func (c *Classifier) IncrementalUpdate() bool { return true }

// BuildFromSet bulk-loads a rule set, returning the total hardware update
// cost.
func (c *Classifier) BuildFromSet(s *RuleSet) (Cost, error) {
	return c.inner.Build(core.CompileSet(s))
}

// Insert installs one rule incrementally; the rule must carry a unique
// non-zero ID and a non-zero priority (see Engine).
func (c *Classifier) Insert(r Rule) (Cost, error) {
	if err := validateEngineRule(r); err != nil {
		return Cost{}, err
	}
	return c.inner.Insert(core.V4Tuple(r))
}

// Delete removes a rule by ID.
func (c *Classifier) Delete(id int) (Cost, error) { return c.inner.Delete(id) }

// Len returns the number of installed rules.
func (c *Classifier) Len() int { return c.inner.Len() }

// Lookup classifies one header. Safe for concurrent use, including while
// rules are being inserted or deleted.
//
//repro:noalloc
func (c *Classifier) Lookup(h Header) (Result, Cost) {
	return c.inner.Lookup(core.V4Header(h))
}

// LookupBatch implements Engine: it classifies the headers in order
// against one consistent snapshot, amortizing the snapshot acquisition
// and the per-field label buffers over the batch.
func (c *Classifier) LookupBatch(hs []Header) []Result {
	out := make([]Result, len(hs))
	c.LookupBatchInto(hs, out)
	return out
}

// v4BatchScratch is the pooled header-conversion slab behind
// Classifier.LookupBatchInto: public rule.Header values are re-typed to
// the core's key-typed headers without a per-call allocation.
type v4BatchScratch struct {
	hdrs []core.Header[lpm.V4]
}

var v4BatchPool = sync.Pool{New: func() any { return new(v4BatchScratch) }}

// LookupBatchInto implements Engine: it classifies the headers in order
// into out[:len(hs)] — the allocation-free batch path. Batches of four
// or more headers run through the core's stage-fused vector kernel.
//
//repro:noalloc
func (c *Classifier) LookupBatchInto(hs []Header, out []Result) {
	sc := v4BatchPool.Get().(*v4BatchScratch)
	hdrs := sc.hdrs[:0]
	for _, h := range hs {
		hdrs = append(hdrs, core.V4Header(h))
	}
	sc.hdrs = hdrs
	c.inner.LookupBatchInto(hdrs, out[:len(hs)])
	v4BatchPool.Put(sc)
}

// LookupBatchCost classifies a batch like LookupBatch and additionally
// returns the summed hardware cost.
func (c *Classifier) LookupBatchCost(hs []Header) ([]Result, Cost) {
	headers := make([]core.Header[lpm.V4], len(hs))
	for i, h := range hs {
		headers[i] = core.V4Header(h)
	}
	return c.inner.LookupBatch(headers)
}

// Snapshot implements Engine: it exports the installed ruleset from one
// consistent RCU snapshot, sorted by ascending rule ID.
func (c *Classifier) Snapshot() []Rule {
	ts := c.inner.Tuples()
	out := make([]Rule, len(ts))
	for i, t := range ts {
		out[i] = core.V4Rule(t)
	}
	return out
}

// Replace implements Engine: a fresh RCU snapshot pair is built from the
// replacement ruleset off to the side and installed with a single pointer
// swap as the last step, so concurrent lookups see the old or the new
// ruleset, never a mix, and a build that fails has published nothing.
// Stats stay cumulative across the swap.
func (c *Classifier) Replace(rules []Rule) (Cost, error) {
	if err := validateReplaceRules(rules); err != nil {
		return Cost{}, err
	}
	ts := make([]core.Tuple[lpm.V4], len(rules))
	for i, r := range rules {
		ts[i] = core.V4Tuple(r)
	}
	return c.inner.Replace(ts)
}

// LookupPacket parses an Ethernet frame and classifies it.
func (c *Classifier) LookupPacket(frame []byte) (Result, Cost, error) {
	h, err := packet.ParseEthernet(frame)
	if err != nil {
		return Result{}, Cost{}, err
	}
	res, cost := c.Lookup(h)
	return res, cost, nil
}

// Stats returns a statistics snapshot.
func (c *Classifier) Stats() Stats { return c.inner.Stats() }

// ResetStats clears the lookup counters.
func (c *Classifier) ResetStats() { c.inner.ResetStats() }

// Memory reports the occupied hardware RAM blocks.
func (c *Classifier) Memory() MemoryMap { return c.inner.Memory() }

// ModelThroughput reports the modeled forwarding performance at the
// paper's 200 MHz clock.
func (c *Classifier) ModelThroughput() Throughput { return c.inner.Throughput() }

// ModelLookupCycles models the clock cycles to stream n headers through
// the lookup pipeline (the Fig. 4 quantity).
func (c *Classifier) ModelLookupCycles(n int) float64 { return c.inner.LookupCycles(n) }

// Classifier6 is the IPv6 lookup domain: the same architecture over
// 128-bit prefixes. Like Classifier it is safe for concurrent use.
type Classifier6 struct {
	inner *core.Concurrent[lpm.V6]
}

// NewClassifier6 returns an IPv6 classifier.
//
// Deprecated: use New6 with WithConfig; NewClassifier6 remains as a thin
// wrapper over the same engine.
func NewClassifier6(cfg Config) (*Classifier6, error) {
	inner, err := core.NewConcurrent[lpm.V6](cfg)
	if err != nil {
		return nil, err
	}
	return &Classifier6{inner: inner}, nil
}

// Backend identifies the algorithm behind the IPv6 classifier. Only the
// decomposition architecture generalizes to 128-bit fields here, so this
// always reports BackendDecomposition — mirroring Classifier.Backend.
func (c *Classifier6) Backend() Backend { return BackendDecomposition }

// IncrementalUpdate reports whether Insert/Delete avoid a rebuild; the
// IPv6 decomposition pipeline updates in place exactly like the IPv4 one
// (Section III.D).
func (c *Classifier6) IncrementalUpdate() bool { return true }

// Insert installs one IPv6 rule; like the IPv4 engines, the rule must
// carry a unique non-zero ID and a non-zero priority.
func (c *Classifier6) Insert(r Rule6) (Cost, error) {
	if err := validateRuleIdentity(r.ID, r.Priority); err != nil {
		return Cost{}, err
	}
	return c.inner.Insert(core.V6Tuple(r))
}

// Delete removes a rule by ID.
func (c *Classifier6) Delete(id int) (Cost, error) { return c.inner.Delete(id) }

// Len returns the number of installed rules.
func (c *Classifier6) Len() int { return c.inner.Len() }

// Lookup classifies one IPv6 header.
func (c *Classifier6) Lookup(h Header6) (Result, Cost) {
	return c.inner.Lookup(core.V6Header(h))
}

// LookupBatch classifies the headers in order against one consistent
// snapshot, mirroring the IPv4 engines.
func (c *Classifier6) LookupBatch(hs []Header6) []Result {
	out := make([]Result, len(hs))
	c.LookupBatchInto(hs, out)
	return out
}

// v6BatchScratch is the IPv6 counterpart of v4BatchScratch.
type v6BatchScratch struct {
	hdrs []core.Header[lpm.V6]
}

var v6BatchPool = sync.Pool{New: func() any { return new(v6BatchScratch) }}

// LookupBatchInto classifies the headers in order into out[:len(hs)],
// mirroring the IPv4 engines' allocation-free batch path.
//
//repro:noalloc
func (c *Classifier6) LookupBatchInto(hs []Header6, out []Result) {
	sc := v6BatchPool.Get().(*v6BatchScratch)
	hdrs := sc.hdrs[:0]
	for _, h := range hs {
		hdrs = append(hdrs, core.V6Header(h))
	}
	sc.hdrs = hdrs
	c.inner.LookupBatchInto(hdrs, out[:len(hs)])
	v6BatchPool.Put(sc)
}

// LookupBatchCost classifies a batch like LookupBatch and additionally
// returns the summed hardware cost, mirroring Classifier.LookupBatchCost.
func (c *Classifier6) LookupBatchCost(hs []Header6) ([]Result, Cost) {
	headers := make([]core.Header[lpm.V6], len(hs))
	for i, h := range hs {
		headers[i] = core.V6Header(h)
	}
	return c.inner.LookupBatch(headers)
}

// Snapshot exports the installed IPv6 ruleset from one consistent RCU
// snapshot, sorted by ascending rule ID.
func (c *Classifier6) Snapshot() []Rule6 {
	ts := c.inner.Tuples()
	out := make([]Rule6, len(ts))
	for i, t := range ts {
		out[i] = core.V6Rule(t)
	}
	return out
}

// Replace atomically swaps the whole IPv6 ruleset, with the same
// contract as Engine.Replace: a fresh RCU snapshot pair is built off to
// the side and installed with a single pointer swap as the last step; nil
// or empty rules reset the domain; on error nothing has been published.
func (c *Classifier6) Replace(rules []Rule6) (Cost, error) {
	seen := make(map[int]struct{}, len(rules))
	ts := make([]core.Tuple[lpm.V6], len(rules))
	for i := range rules {
		if err := validateRuleIdentity(rules[i].ID, rules[i].Priority); err != nil {
			return Cost{}, err
		}
		if err := rules[i].Validate(); err != nil {
			return Cost{}, err
		}
		if _, dup := seen[rules[i].ID]; dup {
			return Cost{}, fmt.Errorf("rule %d: %w", rules[i].ID, core.ErrDuplicateRule)
		}
		seen[rules[i].ID] = struct{}{}
		ts[i] = core.V6Tuple(rules[i])
	}
	return c.inner.Replace(ts)
}

// LookupPacket parses an IPv6 Ethernet frame and classifies it.
func (c *Classifier6) LookupPacket(frame []byte) (Result, Cost, error) {
	h, err := packet.ParseEthernet6(frame)
	if err != nil {
		return Result{}, Cost{}, err
	}
	res, cost := c.Lookup(h)
	return res, cost, nil
}

// Stats returns a statistics snapshot.
func (c *Classifier6) Stats() Stats { return c.inner.Stats() }

// ResetStats zeroes the cumulative probe statistics, mirroring
// Classifier.ResetStats — rule population and memory are unaffected.
func (c *Classifier6) ResetStats() { c.inner.ResetStats() }

// Memory reports the occupied hardware RAM blocks.
func (c *Classifier6) Memory() MemoryMap { return c.inner.Memory() }

// ModelThroughput reports the modeled forwarding performance.
func (c *Classifier6) ModelThroughput() Throughput { return c.inner.Throughput() }

// ModelLookupCycles predicts the modeled cycle cost of classifying n
// headers, mirroring Classifier.ModelLookupCycles.
func (c *Classifier6) ModelLookupCycles(n int) float64 { return c.inner.LookupCycles(n) }

// Synthetic workloads, re-exported from the ruleset generator.
type (
	// Family selects ACL, FW or IPC ruleset structure.
	Family = ruleset.Family
	// GenConfig parameterizes ruleset generation.
	GenConfig = ruleset.Config
	// TraceConfig parameterizes packet-header-set generation.
	TraceConfig = ruleset.TraceConfig
)

// Ruleset families.
const (
	ACL = ruleset.ACL
	FW  = ruleset.FW
	IPC = ruleset.IPC
)

// GenerateRules builds a synthetic ClassBench-style ruleset.
func GenerateRules(cfg GenConfig) (*RuleSet, error) { return ruleset.Generate(cfg) }

// GenerateTrace builds a packet header set correlated with a ruleset.
func GenerateTrace(s *RuleSet, cfg TraceConfig) ([]Header, error) {
	return ruleset.GenerateTrace(s, cfg)
}

// OptimizeRules applies the decision controller's ruleset optimization
// (shadowed-rule removal), returning the optimized set and removed IDs.
func OptimizeRules(s *RuleSet) (*RuleSet, []int, error) { return core.OptimizeSet(s) }
