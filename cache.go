package repro

import (
	"fmt"
	"sync"

	"repro/internal/flowcache"
	"repro/internal/hwsim"
	"repro/internal/rule"
)

// FlowCacheStats reports flow-cache effectiveness: slot capacity, hit
// and miss counts, evictions of live entries, and the number of
// generation invalidations (one per completed rule update).
type FlowCacheStats = flowcache.Stats

// WithFlowCache puts a sharded, lock-free exact-match header cache with
// the given number of entry slots (rounded up to a power of two) in
// front of the engine. Skewed traffic — the Zipf-like flow popularity of
// real networks — turns most lookups into one hash probe; rule updates
// invalidate the whole cache by bumping its generation, so a lookup
// issued after an Insert or Delete returns never sees a pre-update
// verdict. The option composes with every backend and with WithShards
// (the cache fronts the sharded fan-out, so a cache hit skips every
// replica).
//
// Engines built with this option additionally implement
//
//	interface{ CacheStats() FlowCacheStats }
//
// for observing hit rates, and ctl STATS reports the same counters.
func WithFlowCache(entries int) Option {
	return func(o *engineOptions) { o.flowCache = entries }
}

// newFlowCached wraps an assembled engine in the flow cache. When the
// inner engine models hardware throughput (decomposition, sharded or
// not), the wrapper keeps that capability visible, mirroring how the
// shard layer splits sharded/shardedDecomposition.
func newFlowCached(inner Engine, entries int) Engine {
	c := cachedEngine{inner: inner, cache: flowcache.New(entries)}
	if _, ok := inner.(interface{ ModelThroughput() Throughput }); ok {
		return &cachedModelEngine{cachedEngine: c}
	}
	return &c
}

// cachedModelEngine additionally surfaces the hardware throughput model
// of a decomposition inner engine.
type cachedModelEngine struct {
	cachedEngine
}

// ModelThroughput reports the inner engine's modeled forwarding rate
// (the cache does not change the modeled hardware pipeline).
func (c *cachedModelEngine) ModelThroughput() Throughput {
	return c.inner.(interface{ ModelThroughput() Throughput }).ModelThroughput()
}

// cachedEngine fronts any Engine with a flowcache.Cache. Lookups probe
// the cache first and fill it on miss; updates delegate to the inner
// engine and then invalidate, so the cache can never outlive the
// ruleset state it was filled from.
type cachedEngine struct {
	inner Engine
	cache *flowcache.Cache
}

// Backend reports the wrapped engine's algorithm.
func (c *cachedEngine) Backend() Backend { return c.inner.Backend() }

// Unwrap exposes the wrapped engine so capability probes (modeled
// throughput, shard count) can reach through the cache layer.
func (c *cachedEngine) Unwrap() Engine { return c.inner }

// Insert installs the rule and invalidates the cache once the update —
// including the RCU snapshot swap — has completed.
func (c *cachedEngine) Insert(r Rule) (Cost, error) {
	cost, err := c.inner.Insert(r)
	if err == nil {
		c.cache.Invalidate()
	}
	return cost, err
}

// Delete removes the rule and invalidates the cache.
func (c *cachedEngine) Delete(id int) (Cost, error) {
	cost, err := c.inner.Delete(id)
	if err == nil {
		c.cache.Invalidate()
	}
	return cost, err
}

// Replace atomically swaps the inner engine's whole ruleset and then
// invalidates the cache with a single generation bump — one
// invalidation for the entire swap, not one per rule, so the cache
// refills immediately against the new ruleset instead of churning
// through N generations. The inner engine publishes the new ruleset as
// the last step of its Replace and the bump follows at once, so the
// window in which a lookup can still be served a line filled under the
// old ruleset is one reader drain, not the length of the build. The
// window is not zero: the cache generation is not tied to the ruleset
// generation, and a burst that straddles it can mix the two. Once
// Replace has returned, no lookup sees a pre-swap verdict.
func (c *cachedEngine) Replace(rules []Rule) (Cost, error) {
	cost, err := c.inner.Replace(rules)
	if err == nil {
		c.cache.Invalidate()
	}
	return cost, err
}

// Snapshot exports the inner engine's installed ruleset.
func (c *cachedEngine) Snapshot() []Rule { return c.inner.Snapshot() }

// Len returns the number of installed rules.
func (c *cachedEngine) Len() int { return c.inner.Len() }

// flowCacheHitCost is the modeled cost of serving a lookup from the
// cache: a single exact-match hash probe.
var flowCacheHitCost = hwsim.Cost{Cycles: 1, Reads: 1}

// Lookup serves the header from the cache when possible, otherwise runs
// the full engine lookup and publishes the verdict.
//
//repro:noalloc
func (c *cachedEngine) Lookup(h Header) (Result, Cost) {
	res, gen, ok := c.cache.Get(h)
	if ok {
		return res, flowCacheHitCost
	}
	res, cost := c.inner.Lookup(h)
	c.cache.Put(gen, h, res)
	return res, cost
}

// LookupBatch serves cache hits in place and classifies only the missed
// headers through the inner engine's batched path, preserving result
// order.
func (c *cachedEngine) LookupBatch(hs []Header) []Result {
	out := make([]Result, len(hs))
	c.LookupBatchInto(hs, out)
	return out
}

// cacheBatchScratch is the pooled miss-compaction working set of the
// flow-cached batch paths: the miss headers are compacted into one
// contiguous slab (so the inner engine sees a dense burst for its
// stage-fused kernel), classified into a pooled result slab, and
// scattered back to their original positions. missKey carries the
// once-computed 5-tuple hashes on the raw-bytes path.
type cacheBatchScratch struct {
	missIdx []int
	miss    []rule.Header
	missKey []uint64
	res     []Result
}

var cacheBatchPool = sync.Pool{New: func() any { return new(cacheBatchScratch) }}

// LookupBatchInto implements Engine: all N cache slots are probed
// first, the misses are compacted into pooled scratch, one batched
// inner lookup classifies them (the fused burst on the decomposition
// backend), and the verdicts scatter back — zero allocations per call
// in steady state.
//
//repro:noalloc
func (c *cachedEngine) LookupBatchInto(hs []Header, out []Result) {
	sc := cacheBatchPool.Get().(*cacheBatchScratch)
	missIdx := sc.missIdx[:0]
	miss := sc.miss[:0]
	var fillGen uint64
	for i, h := range hs {
		res, gen, ok := c.cache.Get(h)
		if ok {
			out[i] = res
			continue
		}
		if len(miss) == 0 {
			// The first generation observed lower-bounds every later
			// one and precedes the engine read below, so stamping all
			// fills with it is safe.
			fillGen = gen
		}
		missIdx = append(missIdx, i)
		miss = append(miss, h)
	}
	if len(miss) > 0 {
		res := sc.res[:0]
		for range miss {
			res = append(res, Result{})
		}
		sc.res = res
		c.inner.LookupBatchInto(miss, res)
		for j, r := range res {
			out[missIdx[j]] = r
			c.cache.Put(fillGen, miss[j], r)
		}
	}
	sc.missIdx, sc.miss = missIdx, miss
	cacheBatchPool.Put(sc)
}

// Memory reports the inner engine's RAM blocks plus the cache slot
// array (a 64-bit slot pointer and a 13-byte header, 30-byte verdict
// and 8-byte generation per entry).
func (c *cachedEngine) Memory() MemoryMap {
	mm := c.inner.Memory()
	mm.Add("flowcache", 64+8*(13+30+8), c.cache.Entries())
	return mm
}

// IncrementalUpdate reports the wrapped engine's Table I property.
func (c *cachedEngine) IncrementalUpdate() bool { return c.inner.IncrementalUpdate() }

// Stats forwards the inner engine's pipeline statistics (population only
// for backends without the hardware model).
func (c *cachedEngine) Stats() Stats {
	if se, ok := c.inner.(interface{ Stats() Stats }); ok {
		return se.Stats()
	}
	return Stats{Rules: c.inner.Len()}
}

// CacheStats reports flow-cache effectiveness.
func (c *cachedEngine) CacheStats() FlowCacheStats { return c.cache.Stats() }

// Shards reports the inner engine's replica count (1 when unsharded),
// so the serving layer sees through the cache without unwrapping.
func (c *cachedEngine) Shards() int {
	if sh, ok := c.inner.(interface{ Shards() int }); ok {
		return sh.Shards()
	}
	return 1
}

// validateFlowCache checks the WithFlowCache argument at New time.
func validateFlowCache(entries int) error {
	if entries < 0 {
		return fmt.Errorf("repro: flow cache size %d, want >= 0", entries)
	}
	return nil
}
