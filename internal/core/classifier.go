package core

import (
	"fmt"
	"sort"

	"repro/internal/exactmatch"
	"repro/internal/hwsim"
	"repro/internal/label"
	"repro/internal/lpm"
	"repro/internal/rangematch"
	"repro/internal/rule"
)

// Classifier is the programmable lookup domain. Field engines are selected
// once per configuration (the decision controller may later switch the LPM
// engine without touching Label Combination or Rule Filter, as Section
// III.E describes), and rules are inserted, deleted and looked up at run
// time.
type Classifier[K lpm.Key[K]] struct {
	cfg Config

	tables[K]

	// counters holds the lookup-path statistics. They are atomic so that
	// concurrent lookups on one snapshot (the Concurrent wrapper runs
	// many readers against the same instance) stay race-free; everything
	// else in the struct is written only while the instance is quiesced.
	counters lookupCounters
}

// tables is everything a rule update writes: the field engines and the
// decision controller's bookkeeping for one ruleset. It is kept apart from
// the configuration and the lookup counters so that Replace can adopt a
// freshly built set wholesale.
type tables[K lpm.Key[K]] struct {
	srcEngine lpmEngine[K]
	dstEngine lpmEngine[K]
	spEngine  rangematch.Engine
	dpEngine  rangematch.Engine
	prEngine  exactmatch.Engine

	// Per-field spec tables: unique match specification -> label+refs.
	srcSpecs specTable[lpm.Prefix[K]]
	dstSpecs specTable[lpm.Prefix[K]]
	spSpecs  specTable[rule.PortRange]
	dpSpecs  specTable[rule.PortRange]
	prSpecs  specTable[rule.ProtoMatch]

	// Per-field label priority bounds for ULI pruning: best (minimum)
	// rule priority among rules using the label in that field.
	bounds [numFields]prioTracker

	// filter is the Rule Filter: valid label combinations -> rules,
	// best priority first. It is a flat open-addressing table (see
	// flathash.go) written only at rule-update time, so the per-probe
	// read path costs one linear probe sequence and never allocates.
	filter flatTable[[]ruleRef]

	// Partial-combination validity tables, maintained by the label-rule
	// mapping module of the decision controller (Section III.D): the
	// refcount of rules whose label combination starts with the given
	// 2-, 3- or 4-label prefix (padded to comboKey with label.None). The
	// ULI skips combinations with no valid continuation, which
	// "dramatically reduces" label combination time.
	p2, p3, p4 countTable

	// rules indexes compiled rules by ID for deletion.
	rules map[int]compiledRule[K]
}

// numFields is the 5-tuple dimensionality.
const numFields = 5

// comboKey is one label per field, the Rule Filter address.
type comboKey [numFields]label.Label

type ruleRef struct {
	id       int
	priority int
	action   rule.Action
}

type compiledRule[K lpm.Key[K]] struct {
	tuple Tuple[K]
	key   comboKey
}

// Stats aggregates observable behaviour of the lookup domain.
type Stats struct {
	// Rules is the number of installed rules.
	Rules int
	// Labels is the per-field allocated label count.
	Labels [numFields]int
	// HardwareOverflows counts lookups where some field produced more
	// labels than Config.MaxLabels; software results stay exact but the
	// fixed-size hardware lists would have truncated.
	HardwareOverflows int
	// Probes counts Rule Filter probes issued by the ULI; ProbeOps
	// counts lookups, so Probes/ProbeOps is the mean label combination
	// effort.
	Probes   int
	ProbeOps int
	// MaxListLen is the longest per-field label list observed.
	MaxListLen int
	// EngineCycles sums the per-lookup critical-path engine cycles (the
	// slowest of the five parallel field searches).
	EngineCycles int
	// FirstHitProbes sums the probes up to and including the first valid
	// label combination per lookup (the paper's first-match retry loop;
	// for a lookup with no match, every probe counts). Probes beyond the
	// first hit belong to the exact-HPMR supplement and do not stall the
	// hardware pipeline.
	FirstHitProbes int
}

// New returns an empty classifier for the given configuration.
// prefixLens optionally hints the prefix-length distribution to the
// AM-Trie stride chooser; it is ignored by the other engines.
func New[K lpm.Key[K]](cfg Config, prefixLens []uint8) (*Classifier[K], error) {
	cfg = cfg.withDefaults()
	src, err := newLPMEngine[K](cfg, prefixLens)
	if err != nil {
		return nil, fmt.Errorf("source IP engine: %w", err)
	}
	dst, err := newLPMEngine[K](cfg, prefixLens)
	if err != nil {
		return nil, fmt.Errorf("destination IP engine: %w", err)
	}
	sp, err := newRangeEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("source port engine: %w", err)
	}
	dp, err := newRangeEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("destination port engine: %w", err)
	}
	pr, err := newExactEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("protocol engine: %w", err)
	}
	c := &Classifier[K]{cfg: cfg, tables: tables[K]{
		srcEngine: src,
		dstEngine: dst,
		spEngine:  sp,
		dpEngine:  dp,
		prEngine:  pr,
		rules:     make(map[int]compiledRule[K]),
	}}
	c.srcSpecs.init()
	c.dstSpecs.init()
	c.spSpecs.init()
	c.dpSpecs.init()
	c.prSpecs.init()
	return c, nil
}

// Config returns the active configuration.
func (c *Classifier[K]) Config() Config { return c.cfg }

// Len returns the number of installed rules.
func (c *Classifier[K]) Len() int { return len(c.rules) }

// Insert installs a rule, performing the update-phase work of the decision
// controller: acquire (or reuse) one label per field spec, write the new
// specs into the field engines, and add the label combination to the Rule
// Filter. The returned cost is the hardware update cost: engine line
// writes plus the two-cycles-per-rule filter write and the extra hash
// pipeline cycle (Section IV.B).
func (c *Classifier[K]) Insert(t Tuple[K]) (hwsim.Cost, error) {
	if _, dup := c.rules[t.ID]; dup {
		return hwsim.Cost{}, fmt.Errorf("rule %d: %w", t.ID, ErrDuplicateRule)
	}
	t.Src = t.Src.Canonical()
	t.Dst = t.Dst.Canonical()
	var cost hwsim.Cost

	var key comboKey
	// Source IP.
	lab, isNew := c.srcSpecs.acquire(t.Src)
	if isNew {
		cost = cost.Add(c.srcEngine.Insert(t.Src, lab))
	}
	key[fieldSrcIP] = lab
	// Destination IP.
	lab, isNew = c.dstSpecs.acquire(t.Dst)
	if isNew {
		cost = cost.Add(c.dstEngine.Insert(t.Dst, lab))
	}
	key[fieldDstIP] = lab
	// Source port.
	lab, isNew = c.spSpecs.acquire(t.SrcPort)
	if isNew {
		ec, err := c.spEngine.Insert(t.SrcPort, lab)
		if err != nil {
			c.rollbackAcquires(t, fieldSrcPort)
			return hwsim.Cost{}, fmt.Errorf("source port engine: %w", err)
		}
		cost = cost.Add(ec)
	}
	key[fieldSrcPort] = lab
	// Destination port.
	lab, isNew = c.dpSpecs.acquire(t.DstPort)
	if isNew {
		ec, err := c.dpEngine.Insert(t.DstPort, lab)
		if err != nil {
			c.rollbackAcquires(t, fieldDstPort)
			return hwsim.Cost{}, fmt.Errorf("destination port engine: %w", err)
		}
		cost = cost.Add(ec)
	}
	key[fieldDstPort] = lab
	// Protocol.
	lab, isNew = c.prSpecs.acquire(t.Proto)
	if isNew {
		if t.Proto.IsWildcard() {
			cost = cost.Add(c.prEngine.InsertWildcard(lab))
		} else {
			ec, err := c.prEngine.Insert(t.Proto.Value, lab)
			if err != nil {
				c.rollbackAcquires(t, fieldProto)
				return hwsim.Cost{}, fmt.Errorf("protocol engine: %w", err)
			}
			cost = cost.Add(ec)
		}
	}
	key[fieldProto] = lab

	// Track per-label priority bounds for the pruned ULI.
	for f := 0; f < numFields; f++ {
		c.bounds[f].add(key[f], t.Priority)
	}
	c.p2.inc(partialKey(key, 2))
	c.p3.inc(partialKey(key, 3))
	c.p4.inc(partialKey(key, 4))

	// Rule Filter write: labels combined and hashed into the table.
	refs := c.filter.ref(key)
	*refs = insertRef(*refs, ruleRef{id: t.ID, priority: t.Priority, action: t.Action})
	cost.Writes++

	// Update cycles follow the paper's download model: the decision
	// controller computes the update in software and streams "lines of
	// information" to the hardware at two clock cycles per line, plus
	// one extra cycle for the rule filter's hash index calculation
	// (Section IV.B). Engine-side reads happen in the control domain
	// and are reported in Reads without consuming hardware cycles.
	cost.Cycles = 2*cost.Writes + 1

	c.rules[t.ID] = compiledRule[K]{tuple: t, key: key}
	return cost, nil
}

// rollbackAcquires releases spec references acquired before a failed
// engine insert. upTo is the field whose engine rejected the spec; fields
// before it were fully acquired, the failing field's spec reference is
// released without touching its engine (the engine never stored it).
func (c *Classifier[K]) rollbackAcquires(t Tuple[K], upTo int) {
	if upTo > fieldSrcIP {
		if _, gone := c.srcSpecs.release(t.Src); gone {
			c.srcEngine.Delete(t.Src)
		}
	}
	if upTo > fieldDstIP {
		if _, gone := c.dstSpecs.release(t.Dst); gone {
			c.dstEngine.Delete(t.Dst)
		}
	}
	if upTo > fieldSrcPort {
		if _, gone := c.spSpecs.release(t.SrcPort); gone {
			c.spEngine.Delete(t.SrcPort)
		}
	}
	if upTo > fieldDstPort {
		if _, gone := c.dpSpecs.release(t.DstPort); gone {
			c.dpEngine.Delete(t.DstPort)
		}
	}
	switch upTo {
	case fieldSrcPort:
		c.spSpecs.release(t.SrcPort)
	case fieldDstPort:
		c.dpSpecs.release(t.DstPort)
	case fieldProto:
		c.prSpecs.release(t.Proto)
	}
}

// Delete removes a rule by ID, releasing labels and engine entries that no
// remaining rule references. Existing labels are never renumbered
// (Section III.D's stable-label requirement).
func (c *Classifier[K]) Delete(id int) (hwsim.Cost, error) {
	cr, ok := c.rules[id]
	if !ok {
		return hwsim.Cost{}, fmt.Errorf("rule %d: %w", id, ErrUnknownRule)
	}
	var cost hwsim.Cost
	t := cr.tuple

	if _, gone := c.srcSpecs.release(t.Src); gone {
		_, dc, _ := c.srcEngine.Delete(t.Src)
		cost = cost.Add(dc)
	}
	if _, gone := c.dstSpecs.release(t.Dst); gone {
		_, dc, _ := c.dstEngine.Delete(t.Dst)
		cost = cost.Add(dc)
	}
	if _, gone := c.spSpecs.release(t.SrcPort); gone {
		_, dc, _ := c.spEngine.Delete(t.SrcPort)
		cost = cost.Add(dc)
	}
	if _, gone := c.dpSpecs.release(t.DstPort); gone {
		_, dc, _ := c.dpEngine.Delete(t.DstPort)
		cost = cost.Add(dc)
	}
	if _, gone := c.prSpecs.release(t.Proto); gone {
		var dc hwsim.Cost
		if t.Proto.IsWildcard() {
			_, dc, _ = c.prEngine.DeleteWildcard()
		} else {
			_, dc, _ = c.prEngine.Delete(t.Proto.Value)
		}
		cost = cost.Add(dc)
	}
	for f := 0; f < numFields; f++ {
		c.bounds[f].remove(cr.key[f], t.Priority)
	}
	c.p2.dec(partialKey(cr.key, 2))
	c.p3.dec(partialKey(cr.key, 3))
	c.p4.dec(partialKey(cr.key, 4))

	if cur, ok := c.filter.get(cr.key); ok {
		if refs := removeRef(cur, id); len(refs) == 0 {
			c.filter.delete(cr.key)
		} else {
			*c.filter.ref(cr.key) = refs
		}
	}
	cost.Writes++
	cost.Cycles = 2*cost.Writes + 1 // same download model as Insert

	delete(c.rules, id)
	return cost, nil
}

// Build bulk-loads a rule list, returning the total update cost — the
// quantity Fig. 3 plots per ruleset. Build is transactional: if any rule
// is rejected, the rules inserted so far are removed again so the
// classifier is exactly as it was before the call (the Concurrent
// wrapper relies on this to keep its snapshot pair in sync across
// failed updates).
func (c *Classifier[K]) Build(ts []Tuple[K]) (hwsim.Cost, error) {
	var total hwsim.Cost
	for i, t := range ts {
		cost, err := c.Insert(t)
		if err != nil {
			for j := i - 1; j >= 0; j-- {
				c.Delete(ts[j].ID)
			}
			return hwsim.Cost{}, fmt.Errorf("insert rule %d: %w", t.ID, err)
		}
		total = total.Add(cost)
	}
	return total, nil
}

// Tuples returns the installed rules sorted by ascending ID — the
// deterministic export order the snapshot subsystem serializes.
func (c *Classifier[K]) Tuples() []Tuple[K] {
	out := make([]Tuple[K], 0, len(c.rules))
	for _, cr := range c.rules {
		out = append(out, cr.tuple)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// buildFresh builds a new classifier holding exactly ts — the one way a
// whole ruleset is loaded or replaced. The prefix-length hint comes from
// ts, so the result does not depend on what was installed before. On error
// nothing of the attempt survives.
func buildFresh[K lpm.Key[K]](cfg Config, ts []Tuple[K]) (*Classifier[K], hwsim.Cost, error) {
	lens := make([]uint8, 0, 2*len(ts))
	for i := range ts {
		lens = append(lens, ts[i].Src.Len, ts[i].Dst.Len)
	}
	c, err := New[K](cfg, lens)
	if err != nil {
		return nil, hwsim.Cost{}, err
	}
	cost, err := c.Build(ts)
	if err != nil {
		return nil, hwsim.Cost{}, err
	}
	return c, cost, nil
}

// Replace swaps the entire ruleset for ts: a fresh set of tables is built
// off to the side and adopted in place, so the old rules are dropped, not
// torn down one by one. If the build fails (a duplicate ID, an engine out
// of capacity) the error is returned and the classifier is untouched. The
// lookup counters carry on across the swap. The returned cost is the
// download cost of the new ruleset only — fresh banks, no teardown term.
func (c *Classifier[K]) Replace(ts []Tuple[K]) (hwsim.Cost, error) {
	fresh, cost, err := buildFresh(c.cfg, ts)
	if err != nil {
		return hwsim.Cost{}, err
	}
	c.tables = fresh.tables
	return cost, nil
}

// Stats returns a snapshot of the accumulated statistics.
func (c *Classifier[K]) Stats() Stats {
	s := Stats{
		Rules: len(c.rules),
		Labels: [numFields]int{
			fieldSrcIP:   c.srcSpecs.len(),
			fieldDstIP:   c.dstSpecs.len(),
			fieldSrcPort: c.spSpecs.len(),
			fieldDstPort: c.dpSpecs.len(),
			fieldProto:   c.prSpecs.len(),
		},
	}
	c.counters.addTo(&s)
	return s
}

// ResetStats clears the lookup counters (rule and label counts are
// recomputed and unaffected).
func (c *Classifier[K]) ResetStats() { c.counters.reset() }

// Memory aggregates the RAM blocks of all engines plus the Rule Filter
// table and the per-field label lists.
func (c *Classifier[K]) Memory() hwsim.MemoryMap {
	var mm hwsim.MemoryMap
	for _, b := range c.srcEngine.Memory().Blocks {
		mm.Blocks = append(mm.Blocks, prefixBlock("src-", b))
	}
	for _, b := range c.dstEngine.Memory().Blocks {
		mm.Blocks = append(mm.Blocks, prefixBlock("dst-", b))
	}
	for _, b := range c.spEngine.Memory().Blocks {
		mm.Blocks = append(mm.Blocks, prefixBlock("sport-", b))
	}
	for _, b := range c.dpEngine.Memory().Blocks {
		mm.Blocks = append(mm.Blocks, prefixBlock("dport-", b))
	}
	for _, b := range c.prEngine.Memory().Blocks {
		mm.Blocks = append(mm.Blocks, prefixBlock("proto-", b))
	}
	// Rule Filter: one hash line per rule (label combination + rule id +
	// action), dimensioned with 2x slack for the hash load factor.
	mm.Add("rulefilter", numFields*16+20+8, 2*len(c.rules))
	return mm
}

func prefixBlock(prefix string, b hwsim.MemoryBlock) hwsim.MemoryBlock {
	b.Name = prefix + b.Name
	return b
}

// specTable tracks unique field specs with reference counts and stable
// labels.
type specTable[S comparable] struct {
	m     map[S]*specEntry
	alloc label.Allocator
}

type specEntry struct {
	lab  label.Label
	refs int
}

func (t *specTable[S]) init() { t.m = make(map[S]*specEntry) }

func (t *specTable[S]) len() int { return len(t.m) }

// acquire returns the spec's label, allocating one if the spec is new.
func (t *specTable[S]) acquire(s S) (label.Label, bool) {
	if e, ok := t.m[s]; ok {
		e.refs++
		return e.lab, false
	}
	e := &specEntry{lab: t.alloc.Alloc(), refs: 1}
	t.m[s] = e
	return e.lab, true
}

// release drops one reference; when the last reference goes, the label is
// recycled and (label, true) is returned so the caller can remove the spec
// from its engine.
func (t *specTable[S]) release(s S) (label.Label, bool) {
	e, ok := t.m[s]
	if !ok {
		return label.None, false
	}
	e.refs--
	if e.refs > 0 {
		return e.lab, false
	}
	delete(t.m, s)
	t.alloc.Free(e.lab)
	return e.lab, true
}

// prioTracker maintains, per label, the multiset of priorities of rules
// using it, exposing the minimum as the ULI pruning bound. Labels are
// dense small integers, so both halves are flat slices indexed by label:
// min() on the lookup hot path is one bounds check and one load from mins,
// and the multiset (update-time only) is the label's priorities in
// ascending order, repeats kept, so the bound after a removal is its first
// element rather than a scan.
type prioTracker struct {
	prios [][]int
	mins  []labelBound
}

// labelBound is one slot of the flat minimum table; ok distinguishes an
// untracked (stale) label from any real priority value.
type labelBound struct {
	prio int
	ok   bool
}

func (p *prioTracker) add(l label.Label, prio int) {
	for int(l) >= len(p.mins) {
		p.mins = append(p.mins, labelBound{})
		p.prios = append(p.prios, nil)
	}
	s := p.prios[l]
	// After any equal priorities: rules arriving in priority order append.
	i := sort.Search(len(s), func(i int) bool { return s[i] > prio })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = prio
	p.prios[l] = s
	p.mins[l] = labelBound{prio: s[0], ok: true}
}

func (p *prioTracker) remove(l label.Label, prio int) {
	if int(l) >= len(p.prios) {
		return
	}
	s := p.prios[l]
	i := sort.SearchInts(s, prio)
	if i == len(s) || s[i] != prio {
		return
	}
	// Close the gap from the shorter side: taking out a label's best or
	// worst priority — a teardown in either priority order — moves nothing.
	if i < len(s)/2 {
		copy(s[1:i+1], s[:i])
		s = s[1:]
	} else {
		s = append(s[:i], s[i+1:]...)
	}
	if len(s) == 0 {
		p.prios[l] = nil
		p.mins[l] = labelBound{}
		return
	}
	p.prios[l] = s
	p.mins[l].prio = s[0]
}

// min returns the best priority bound for the label; ok is false if the
// label is untracked.
func (p *prioTracker) min(l label.Label) (int, bool) {
	if int(l) >= len(p.mins) {
		return 0, false
	}
	b := p.mins[l]
	return b.prio, b.ok
}

func insertRef(refs []ruleRef, r ruleRef) []ruleRef {
	i := 0
	for i < len(refs) && refs[i].priority < r.priority {
		i++
	}
	refs = append(refs, ruleRef{})
	copy(refs[i+1:], refs[i:])
	refs[i] = r
	return refs
}

func removeRef(refs []ruleRef, id int) []ruleRef {
	for i := range refs {
		if refs[i].id == id {
			return append(refs[:i], refs[i+1:]...)
		}
	}
	return refs
}
