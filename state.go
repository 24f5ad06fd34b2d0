package repro

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fwstate"
	"repro/internal/hwsim"
	"repro/internal/packet"
	"repro/internal/rule"
)

// FlowStateStats reports conntrack-table effectiveness: entry capacity,
// install / state-hit / miss counts, TTL expiries, evictions of live
// entries, and the number of generation invalidations.
type FlowStateStats = fwstate.Stats

// WithFlowState puts a sharded, lock-free, TTL-expiring flow-state table
// (a connection tracker) with the given number of entry slots (rounded up
// to a power of two) in front of the engine. A lookup whose matched rule
// carries ActionEstablish ("allow-established") installs a flow entry
// under the direction-normalized 5-tuple key, so the reverse direction of
// the same flow — the server's replies — is accepted by state before the
// classifier runs. Entries expire ttl after their last hit (ttl <= 0
// selects fwstate.DefaultTTL); rule updates invalidate established state
// by bumping the table generation, unless WithFlowStatePreserve keeps it
// across updates. The option composes with every backend, WithShards and
// WithFlowCache (state fronts the cache, so an established-flow hit skips
// both the cache probe and the classifier).
//
// Engines built with this option additionally implement
//
//	interface{ StateStats() FlowStateStats }
//
// for observing state-hit rates, and ctl STATS reports the same counters.
func WithFlowState(entries int, ttl time.Duration) Option {
	return func(o *engineOptions) {
		o.state = entries
		o.stateTTL = ttl
	}
}

// WithFlowStatePreserve keeps established flow state across rule updates
// (Insert, Delete and Replace no longer invalidate the state table). Use
// it when connection continuity across a ruleset swap matters more than
// immediately re-evaluating live flows against the new rules; without it
// every update clears state and established flows must re-traverse the
// classifier (and re-establish) once. Only meaningful together with
// WithFlowState.
func WithFlowStatePreserve() Option {
	return func(o *engineOptions) { o.statePreserve = true }
}

// newFlowState wraps an assembled engine in the flow-state layer. Like
// the flow-cache wrapper, a model-capable inner engine (decomposition,
// possibly sharded or cached) keeps its ModelThroughput visible.
func newFlowState(inner Engine, entries int, ttl time.Duration, preserve bool) Engine {
	s := statefulEngine{inner: inner, table: fwstate.New(entries, ttl), preserve: preserve}
	if _, ok := inner.(interface{ ModelThroughput() Throughput }); ok {
		return &statefulModelEngine{statefulEngine: s}
	}
	return &s
}

// statefulModelEngine additionally surfaces the hardware throughput
// model of a model-capable inner engine.
type statefulModelEngine struct {
	statefulEngine
}

// ModelThroughput reports the inner engine's modeled forwarding rate
// (the state table does not change the modeled hardware pipeline).
func (s *statefulModelEngine) ModelThroughput() Throughput {
	return s.inner.(interface{ ModelThroughput() Throughput }).ModelThroughput()
}

// statefulEngine fronts any Engine with an fwstate.Table. Lookups probe
// the state table first; on a miss the inner engine classifies the
// header, and a verdict whose action is ActionEstablish is installed
// under the normalized flow key, covering both directions. Updates
// delegate to the inner engine and then invalidate established state
// (unless preserve is set), so state can never outlive the ruleset it
// was established from.
type statefulEngine struct {
	inner    Engine
	table    *fwstate.Table
	preserve bool
}

// Backend reports the wrapped engine's algorithm.
func (s *statefulEngine) Backend() Backend { return s.inner.Backend() }

// Unwrap exposes the wrapped engine so capability probes (modeled
// throughput, shard count, cache stats) can reach through the state
// layer.
func (s *statefulEngine) Unwrap() Engine { return s.inner }

// Insert installs the rule and invalidates established state once the
// update has completed, unless the engine was built with
// WithFlowStatePreserve.
func (s *statefulEngine) Insert(r Rule) (Cost, error) {
	cost, err := s.inner.Insert(r)
	if err == nil && !s.preserve {
		s.table.Invalidate()
	}
	return cost, err
}

// Delete removes the rule and invalidates established state (unless
// preserving).
func (s *statefulEngine) Delete(id int) (Cost, error) {
	cost, err := s.inner.Delete(id)
	if err == nil && !s.preserve {
		s.table.Invalidate()
	}
	return cost, err
}

// Replace atomically swaps the inner engine's ruleset and then
// invalidates established state with a single generation bump — one
// invalidation for the whole swap — unless the engine was built with
// WithFlowStatePreserve, in which case live connections survive the
// swap. The inner engine publishes the new ruleset as the last step of
// its Replace and the bump follows at once, so a flow established under
// the old ruleset can keep being admitted for one reader drain after the
// new rules serve, not for the length of the build; like the flow
// cache's, that window is short but not zero, and it closes before
// Replace returns.
func (s *statefulEngine) Replace(rules []Rule) (Cost, error) {
	cost, err := s.inner.Replace(rules)
	if err == nil && !s.preserve {
		s.table.Invalidate()
	}
	return cost, err
}

// Snapshot exports the inner engine's installed ruleset.
func (s *statefulEngine) Snapshot() []Rule { return s.inner.Snapshot() }

// Len returns the number of installed rules.
func (s *statefulEngine) Len() int { return s.inner.Len() }

// flowStateHitCost is the modeled cost of accepting a packet by state: a
// single exact-match hash probe, same as a flow-cache hit.
var flowStateHitCost = hwsim.Cost{Cycles: 1, Reads: 1}

// Lookup accepts the header by established state when possible,
// otherwise runs the full lookup below (cache and classifier) and
// installs a flow entry if the verdict asks to establish.
//
//repro:noalloc
func (s *statefulEngine) Lookup(h Header) (Result, Cost) {
	k := fwstate.KeyOf(h)
	hk := s.table.Hash(k)
	res, gen, ok := s.table.GetHashed(hk, k)
	if ok {
		return res, flowStateHitCost
	}
	res, cost := s.inner.Lookup(h)
	if res.Found && res.Action == ActionEstablish {
		s.table.PutHashed(hk, gen, k, res)
	}
	return res, cost
}

// LookupBatch accepts state hits in place and classifies only the missed
// headers through the inner engine's batched path, preserving result
// order.
func (s *statefulEngine) LookupBatch(hs []Header) []Result {
	out := make([]Result, len(hs))
	s.LookupBatchInto(hs, out)
	return out
}

// stateBatchScratch is the pooled miss-compaction working set of the
// stateful batch paths, mirroring cacheBatchScratch: miss headers are
// compacted into one contiguous slab for the inner engine's batched
// (possibly cached, possibly stage-fused) path, and the once-computed
// flow keys and hashes are reused by the establish-time fills.
type stateBatchScratch struct {
	missIdx []int
	miss    []rule.Header
	missKey []fwstate.Key
	missHK  []uint64
	res     []Result
}

var stateBatchPool = sync.Pool{New: func() any { return new(stateBatchScratch) }}

// LookupBatchInto implements Engine: all N state slots are probed first,
// the misses are compacted into pooled scratch, one batched inner lookup
// classifies them, and the verdicts scatter back, installing flow
// entries for the establishing ones — zero allocations per call in
// steady state. Within one batch the entries installed for earlier
// packets are not visible to later packets of the same batch: the whole
// batch is probed against the state table as it stood at batch start,
// mirroring how a hardware burst is classified against one snapshot.
//
//repro:noalloc
func (s *statefulEngine) LookupBatchInto(hs []Header, out []Result) {
	sc := stateBatchPool.Get().(*stateBatchScratch)
	missIdx := sc.missIdx[:0]
	miss := sc.miss[:0]
	missKey := sc.missKey[:0]
	missHK := sc.missHK[:0]
	var fillGen uint64
	for i, h := range hs {
		k := fwstate.KeyOf(h)
		hk := s.table.Hash(k)
		res, gen, ok := s.table.GetHashed(hk, k)
		if ok {
			out[i] = res
			continue
		}
		if len(miss) == 0 {
			// The first generation observed lower-bounds every later one
			// and precedes the engine read below, so stamping all fills
			// with it is safe (see cachedEngine.LookupBatchInto).
			fillGen = gen
		}
		missIdx = append(missIdx, i)
		miss = append(miss, h)
		missKey = append(missKey, k)
		missHK = append(missHK, hk)
	}
	if len(miss) > 0 {
		res := sc.res[:0]
		for range miss {
			res = append(res, Result{})
		}
		sc.res = res
		s.inner.LookupBatchInto(miss, res)
		for j, r := range res {
			out[missIdx[j]] = r
			if r.Found && r.Action == ActionEstablish {
				s.table.PutHashed(missHK[j], fillGen, missKey[j], r)
			}
		}
	}
	sc.missIdx, sc.miss, sc.missKey, sc.missHK = missIdx, miss, missKey, missHK
	stateBatchPool.Put(sc)
}

// LookupBytes implements Engine for stateful compositions: the flow key
// and its hash are computed once off the freshly decoded header and
// threaded through both the state probe and the establish-time fill. The
// steady-state established-flow path performs no allocations.
//
//repro:noalloc
func (s *statefulEngine) LookupBytes(frame []byte) (Result, error) {
	var h rule.Header
	if err := packet.DecodeEthernet(frame, &h); err != nil {
		return Result{}, err
	}
	k := fwstate.KeyOf(h)
	hk := s.table.Hash(k)
	res, gen, ok := s.table.GetHashed(hk, k)
	if ok {
		return res, nil
	}
	res, _ = s.inner.Lookup(h)
	if res.Found && res.Action == ActionEstablish {
		s.table.PutHashed(hk, gen, k, res)
	}
	return res, nil
}

// LookupBytesBatch implements Engine: decoded headers probe the state
// table with once-computed keys; only the misses reach the inner
// engine's batched raw path — compacted into pooled scratch, classified
// by one batched inner lookup, and scattered back — and the establishing
// verdicts install flow entries with the same keys. Zero allocations per
// slab in steady state.
//
//repro:noalloc
func (s *statefulEngine) LookupBytesBatch(frames [][]byte, out []Result) int {
	b := rawBurstPool.Get().(*packet.Burst)
	hdrs, idx := b.DecodeV4(frames)
	for i := range frames {
		out[i] = Result{}
	}
	sc := stateBatchPool.Get().(*stateBatchScratch)
	missIdx := sc.missIdx[:0]
	miss := sc.miss[:0]
	missKey := sc.missKey[:0]
	missHK := sc.missHK[:0]
	var fillGen uint64
	for j, h := range hdrs {
		k := fwstate.KeyOf(h)
		hk := s.table.Hash(k)
		res, gen, ok := s.table.GetHashed(hk, k)
		if ok {
			out[idx[j]] = res
			continue
		}
		if len(miss) == 0 {
			fillGen = gen
		}
		missIdx = append(missIdx, idx[j])
		miss = append(miss, h)
		missKey = append(missKey, k)
		missHK = append(missHK, hk)
	}
	if len(miss) > 0 {
		res := sc.res[:0]
		for range miss {
			res = append(res, Result{})
		}
		sc.res = res
		s.inner.LookupBatchInto(miss, res)
		for j, r := range res {
			out[missIdx[j]] = r
			if r.Found && r.Action == ActionEstablish {
				s.table.PutHashed(missHK[j], fillGen, missKey[j], r)
			}
		}
	}
	sc.missIdx, sc.miss, sc.missKey, sc.missHK = missIdx, miss, missKey, missHK
	stateBatchPool.Put(sc)
	n := len(hdrs)
	rawBurstPool.Put(b)
	return n
}

// Memory reports the inner engine's RAM blocks plus the state slot array
// (a 64-bit slot pointer and a 46-byte key, 30-byte verdict, 8-byte
// generation and 8-byte expiry per entry).
func (s *statefulEngine) Memory() MemoryMap {
	mm := s.inner.Memory()
	mm.Add("fwstate", 64+8*(46+30+8+8), s.table.Entries())
	return mm
}

// IncrementalUpdate reports the wrapped engine's Table I property.
func (s *statefulEngine) IncrementalUpdate() bool { return s.inner.IncrementalUpdate() }

// Stats forwards the inner engine's pipeline statistics (population only
// for backends without the hardware model).
func (s *statefulEngine) Stats() Stats {
	if se, ok := s.inner.(interface{ Stats() Stats }); ok {
		return se.Stats()
	}
	return Stats{Rules: s.inner.Len()}
}

// StateStats reports flow-state-table effectiveness.
//
// The wrapper deliberately does not forward CacheStats: a cached inner
// composition stays reachable through Unwrap, so capability probes that
// walk the wrapper chain see the cache exactly when one exists instead
// of a zero-valued impostor.
func (s *statefulEngine) StateStats() FlowStateStats { return s.table.Stats() }

// Shards reports the inner engine's replica count (1 when unsharded),
// so the serving layer sees through the state table without unwrapping.
func (s *statefulEngine) Shards() int {
	if sh, ok := s.inner.(interface{ Shards() int }); ok {
		return sh.Shards()
	}
	return 1
}

// validateFlowState checks the WithFlowState arguments at New time.
func validateFlowState(entries int) error {
	if entries < 0 {
		return fmt.Errorf("repro: flow state size %d, want >= 0", entries)
	}
	return nil
}
