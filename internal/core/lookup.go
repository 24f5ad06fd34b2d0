package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/hwsim"
	"repro/internal/label"
	"repro/internal/rule"
)

// Field indices inside a comboKey, matching the paper's label naming
// L_IPs, L_IPd, L_Ps, L_Pd, L_PRT.
const (
	fieldSrcIP = iota
	fieldDstIP
	fieldSrcPort
	fieldDstPort
	fieldProto
)

// Result is the outcome of one lookup.
type Result struct {
	// RuleID and Priority identify the Highest-Priority Matching Rule.
	RuleID   int
	Priority int
	Action   rule.Action
	// Found is false when no rule matches; the paper discards such
	// packets or punts them to the control platform.
	Found bool
	// Probes is the number of Rule Filter probes the ULI issued — the
	// label combination time of Eq. 1 for this packet.
	Probes int
	// FirstHitProbes is the number of probes up to and including the
	// first valid combination (equal to Probes when nothing matched).
	FirstHitProbes int
}

// Lookup classifies one header: per-field engines produce label lists, the
// ULI combines them against the Rule Filter, and the HPMR (if any) is
// returned. The cost models the hardware pipeline: the engines search in
// parallel (their cycle counts combine by max — "the LPM engine defines
// the critical path"), then each ULI probe costs one cycle.
//
// Lookup mutates only the atomic statistics counters, so any number of
// goroutines may look up concurrently on one instance — provided no
// writer mutates it at the same time. The Concurrent wrapper provides
// that guarantee; bare Classifier users must serialize updates against
// lookups themselves.
//
//repro:noalloc
func (c *Classifier[K]) Lookup(h Header[K]) (Result, hwsim.Cost) {
	bufs := bufPool.Get().(*lookupBuffers)
	res, cost := c.lookupInto(h, bufs)
	bufPool.Put(bufs)
	return res, cost
}

// lookupBuffers holds reusable label-list storage for allocation-free
// lookups in hot loops.
type lookupBuffers struct {
	lists [numFields][]label.Label
}

// bufPool recycles lookupBuffers across lookups (and across classifier
// instances — the buffers carry no per-classifier state). After a few
// lookups the pooled slices hold enough capacity for any label list, so
// the steady-state single-header Lookup path performs zero heap
// allocations.
var bufPool = sync.Pool{New: func() any { return new(lookupBuffers) }}

// LookupBatch classifies headers in order, reusing buffers, and returns
// the results plus the summed cost.
func (c *Classifier[K]) LookupBatch(hs []Header[K]) ([]Result, hwsim.Cost) {
	out := make([]Result, len(hs))
	return out, c.LookupBatchInto(hs, out)
}

// LookupBatchInto classifies headers in order into out[:len(hs)] — the
// allocation-free batch path used by raw-frame ingestion, where the
// caller owns (and pools) the result slab. out must hold at least
// len(hs) results.
//
// Batches of burstFuseMin or more headers run through the stage-fused
// vector kernel (see burst.go), chunked at maxBurst headers per pass;
// shorter batches stay on the header-at-a-time path. Results, costs
// and statistics are identical either way.
//
//repro:noalloc
func (c *Classifier[K]) LookupBatchInto(hs []Header[K], out []Result) hwsim.Cost {
	if len(hs) < burstFuseMin {
		bufs := bufPool.Get().(*lookupBuffers)
		var total hwsim.Cost
		for i, h := range hs {
			r, cost := c.lookupInto(h, bufs)
			out[i] = r
			total = total.Add(cost)
		}
		bufPool.Put(bufs)
		return total
	}
	bufs := burstBufPool.Get().(*burstBuffers)
	var total hwsim.Cost
	for off := 0; off < len(hs); off += maxBurst {
		end := min(off+maxBurst, len(hs))
		total = total.Add(c.lookupBurstInto(hs[off:end], out[off:end], bufs))
	}
	burstBufPool.Put(bufs)
	return total
}

//repro:noalloc
func (c *Classifier[K]) lookupInto(h Header[K], bufs *lookupBuffers) (Result, hwsim.Cost) {
	// Packet Header Partition: each field goes to its engine. The five
	// searches run in parallel in hardware; the stage cost is the
	// slowest engine (the LPM critical path).
	var srcCost, dstCost, spCost, dpCost, prCost hwsim.Cost
	bufs.lists[fieldSrcIP], srcCost = c.srcEngine.Lookup(h.Src, bufs.lists[fieldSrcIP][:0])
	bufs.lists[fieldDstIP], dstCost = c.dstEngine.Lookup(h.Dst, bufs.lists[fieldDstIP][:0])
	bufs.lists[fieldSrcPort], spCost = c.spEngine.Lookup(h.SrcPort, bufs.lists[fieldSrcPort][:0])
	bufs.lists[fieldDstPort], dpCost = c.dpEngine.Lookup(h.DstPort, bufs.lists[fieldDstPort][:0])
	bufs.lists[fieldProto], prCost = c.prEngine.Lookup(h.Proto, bufs.lists[fieldProto][:0])

	engineStage := srcCost.Max(dstCost).Max(spCost).Max(dpCost).Max(prCost)
	cost := hwsim.Cost{
		Cycles: engineStage.Cycles,
		Reads:  srcCost.Reads + dstCost.Reads + spCost.Reads + dpCost.Reads + prCost.Reads,
	}
	c.counters.engineCycles.Add(int64(engineStage.Cycles))

	// Track hardware list-bound behaviour.
	overflow := false
	maxList := 0
	for f := 0; f < numFields; f++ {
		if n := len(bufs.lists[f]); n > maxList {
			maxList = n
		}
		if len(bufs.lists[f]) > c.cfg.MaxLabels {
			overflow = true
		}
	}
	c.counters.observeListLen(maxList)
	if overflow {
		c.counters.hardwareOverflows.Add(1)
	}

	res := c.combine(bufs)
	cost.Cycles += res.Probes + 1 // one cycle per probe, one to emit
	cost.Reads += res.Probes
	c.counters.probes.Add(int64(res.Probes))
	c.counters.firstHitProbes.Add(int64(res.FirstHitProbes))
	c.counters.probeOps.Add(1)
	return res, cost
}

// lookupCounters is the lookup-path slice of Stats, kept atomic so that
// concurrent readers of one snapshot can account without racing.
type lookupCounters struct {
	hardwareOverflows atomic.Int64
	probes            atomic.Int64
	probeOps          atomic.Int64
	maxListLen        atomic.Int64
	engineCycles      atomic.Int64
	firstHitProbes    atomic.Int64
}

// observeListLen raises the max-list-length watermark.
func (lc *lookupCounters) observeListLen(n int) {
	v := int64(n)
	for {
		cur := lc.maxListLen.Load()
		if v <= cur || lc.maxListLen.CompareAndSwap(cur, v) {
			return
		}
	}
}

// addTo merges the counters into a Stats snapshot. Concurrent keeps two
// snapshot instances whose readers alternate, so merging sums the
// counters of both.
func (lc *lookupCounters) addTo(s *Stats) {
	s.HardwareOverflows += int(lc.hardwareOverflows.Load())
	s.Probes += int(lc.probes.Load())
	s.ProbeOps += int(lc.probeOps.Load())
	if ml := int(lc.maxListLen.Load()); ml > s.MaxListLen {
		s.MaxListLen = ml
	}
	s.EngineCycles += int(lc.engineCycles.Load())
	s.FirstHitProbes += int(lc.firstHitProbes.Load())
}

// absorb adds the counters of a retired, quiesced instance to lc, which
// may be serving readers.
func (lc *lookupCounters) absorb(from *lookupCounters) {
	lc.hardwareOverflows.Add(from.hardwareOverflows.Load())
	lc.probes.Add(from.probes.Load())
	lc.probeOps.Add(from.probeOps.Load())
	lc.observeListLen(int(from.maxListLen.Load()))
	lc.engineCycles.Add(from.engineCycles.Load())
	lc.firstHitProbes.Add(from.firstHitProbes.Load())
}

func (lc *lookupCounters) reset() {
	lc.hardwareOverflows.Store(0)
	lc.probes.Store(0)
	lc.probeOps.Store(0)
	lc.maxListLen.Store(0)
	lc.engineCycles.Store(0)
	lc.firstHitProbes.Store(0)
}

// combine is the Unique Label Identifier: it walks label combinations
// (highest-priority labels first) and probes the Rule Filter until the
// HPMR is established. In CombinePruned mode the per-label priority bound
// from the label-rule mapping cuts combinations that cannot beat the best
// match found — the decision-control optimization of Section III.D. In
// CombineExhaustive mode every combination is probed (worst-case LCT,
// Eq. 1).
//
// The walker is iterative — per-field cursor positions plus a bound per
// level, all in fixed-size stack arrays — so the hot path builds no
// closure and performs no recursion; the probe order is the same
// depth-first, highest-priority-labels-first order the hardware follows.
//
//repro:noalloc
func (c *Classifier[K]) combine(bufs *lookupBuffers) Result {
	for f := 0; f < numFields; f++ {
		if len(bufs.lists[f]) == 0 {
			return Result{} // some field matched nothing: no rule can match
		}
	}
	res := Result{}
	best := ruleRef{priority: int(^uint(0) >> 1)}
	found := false
	prune := c.cfg.Combine == CombinePruned

	// key is kept None-padded beyond the current level as an invariant:
	// positions above f always hold label.None, restored on backtrack.
	// The partial-combination probes below can then hash key directly
	// instead of copying and re-padding it per probe (partialKey), which
	// was a measurable share of the ULI walk on ACL-scale rulesets.
	key := comboKey{label.None, label.None, label.None, label.None, label.None}
	var idx [numFields]int       // next label position per level
	var bound [numFields + 1]int // accumulated priority bound per level
	bound[0] = -1
	f := 0
	for f >= 0 {
		if idx[f] == len(bufs.lists[f]) {
			idx[f] = 0
			key[f] = label.None
			f--
			continue // level exhausted: backtrack
		}
		lab := bufs.lists[f][idx[f]]
		idx[f]++
		fieldBound, ok := c.bounds[f].min(lab)
		if !ok {
			continue // stale label: no rule currently uses it
		}
		nb := bound[f]
		if fieldBound > nb {
			nb = fieldBound
		}
		if prune && found && nb >= best.priority {
			continue // cannot beat the HPMR found so far
		}
		key[f] = lab
		// The label-rule mapping tables (Section III.D) record which
		// partial combinations occur in the ruleset; dead branches are
		// never expanded in pruned mode.
		if prune {
			switch f {
			case 1:
				if !c.p2.has(key) {
					continue
				}
			case 2:
				if !c.p3.has(key) {
					continue
				}
			case 3:
				if !c.p4.has(key) {
					continue
				}
			}
		}
		if f == numFields-1 {
			res.Probes++
			if refs, ok := c.filter.get(key); ok {
				if !found {
					res.FirstHitProbes = res.Probes
					found = true
				}
				if refs[0].priority < best.priority {
					best = refs[0]
				}
			}
			continue
		}
		bound[f+1] = nb
		f++
	}

	if !found {
		// No valid combination: hardware detects the miss only after
		// exhausting the permutations.
		res.FirstHitProbes = res.Probes
		return res
	}
	res.RuleID, res.Priority, res.Action, res.Found = best.id, best.priority, best.action, true
	return res
}
