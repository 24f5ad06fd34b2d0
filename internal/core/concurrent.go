package core

import (
	"repro/internal/hwsim"
	"repro/internal/lpm"
	"repro/internal/rcu"
	"repro/internal/rule"
)

// Concurrent is the concurrency-safe lookup domain: a Classifier pair
// managed by the RCU snapshot store, so any number of goroutines may look
// up while rules are inserted and deleted. Writers replay each update on
// both snapshot instances (preserving the O(1) incremental-update cost);
// readers acquire the published snapshot without locking. This is the
// software analogue of the paper's dual-port lookup hardware, where the
// update channel never stalls the lookup pipeline.
type Concurrent[K lpm.Key[K]] struct {
	store *rcu.Store[*Classifier[K]]
}

// NewConcurrent returns an empty concurrency-safe classifier for the
// configuration; the parameters mirror New.
func NewConcurrent[K lpm.Key[K]](cfg Config, prefixLens []uint8) (*Concurrent[K], error) {
	a, err := New[K](cfg, prefixLens)
	if err != nil {
		return nil, err
	}
	b, err := New[K](cfg, prefixLens)
	if err != nil {
		return nil, err
	}
	return &Concurrent[K]{store: rcu.NewStore(a, b)}, nil
}

// Config returns the active configuration.
func (c *Concurrent[K]) Config() Config {
	h := c.store.Acquire()
	defer h.Release()
	return h.Value().Config()
}

// Insert installs one rule; safe to call while lookups are in flight.
func (c *Concurrent[K]) Insert(t Tuple[K]) (hwsim.Cost, error) {
	var cost hwsim.Cost
	err := c.store.Update(func(cl *Classifier[K]) error {
		var e error
		cost, e = cl.Insert(t)
		return e
	}, nil) // Insert rolls back on failure, so no repair step is needed
	return cost, err
}

// Delete removes a rule by ID; safe to call while lookups are in flight.
func (c *Concurrent[K]) Delete(id int) (hwsim.Cost, error) {
	var cost hwsim.Cost
	err := c.store.Update(func(cl *Classifier[K]) error {
		var e error
		cost, e = cl.Delete(id)
		return e
	}, nil)
	return cost, err
}

// Replace atomically swaps the whole ruleset for ts. Both snapshot
// instances are built fresh, off to the side, and installed together by
// the store's Swap, so publication is the last step: concurrent
// Lookup/LookupBatch callers observe either the complete old ruleset or
// the complete new one — never an intermediate mix — and a build that
// fails returns its error with nothing published. The retired pair's
// lookup counters are folded into the new pair, so Stats stays cumulative.
// An Insert or Delete that completes while the new pair is being built is
// ordered before the Replace and is replaced with everything else. Four
// instances are alive until Replace returns, instead of the usual two. The
// returned cost is the download cost of the new ruleset only.
func (c *Concurrent[K]) Replace(ts []Tuple[K]) (hwsim.Cost, error) {
	cfg := c.Config()
	a, cost, err := buildFresh(cfg, ts)
	if err != nil {
		return hwsim.Cost{}, err
	}
	b, _, err := buildFresh(cfg, ts)
	if err != nil {
		return hwsim.Cost{}, err
	}
	c.store.Swap(a, b, func(oldActive, oldSpare *Classifier[K]) {
		a.counters.absorb(&oldActive.counters)
		a.counters.absorb(&oldSpare.counters)
	})
	return cost, nil
}

// Tuples exports the installed rules sorted by ascending ID, read from
// one consistent snapshot.
func (c *Concurrent[K]) Tuples() []Tuple[K] {
	h := c.store.Acquire()
	defer h.Release()
	return h.Value().Tuples()
}

// Build bulk-loads a rule list, returning the total update cost.
func (c *Concurrent[K]) Build(ts []Tuple[K]) (hwsim.Cost, error) {
	var total hwsim.Cost
	err := c.store.Update(func(cl *Classifier[K]) error {
		var e error
		total, e = cl.Build(ts)
		return e
	}, nil)
	return total, err
}

// Len returns the number of installed rules.
func (c *Concurrent[K]) Len() int {
	h := c.store.Acquire()
	defer h.Release()
	return h.Value().Len()
}

// Lookup classifies one header. Safe for any number of concurrent
// callers, including during Insert/Delete.
//
//repro:noalloc
func (c *Concurrent[K]) Lookup(h Header[K]) (Result, hwsim.Cost) {
	hd := c.store.Acquire()
	res, cost := hd.Value().Lookup(h)
	hd.Release()
	return res, cost
}

// LookupBatch classifies headers in order against one consistent
// snapshot, amortizing the snapshot acquisition and the label-list
// buffers over the batch.
func (c *Concurrent[K]) LookupBatch(hs []Header[K]) ([]Result, hwsim.Cost) {
	hd := c.store.Acquire()
	res, cost := hd.Value().LookupBatch(hs)
	hd.Release()
	return res, cost
}

// LookupBatchInto classifies headers into a caller-owned result slab
// against one consistent snapshot — the allocation-free batch path.
// out must hold at least len(hs) results.
//
//repro:noalloc
func (c *Concurrent[K]) LookupBatchInto(hs []Header[K], out []Result) hwsim.Cost {
	hd := c.store.Acquire()
	cost := hd.Value().LookupBatchInto(hs, out)
	hd.Release()
	return cost
}

// Stats merges the statistics of both snapshot instances: lookups land on
// whichever instance was active, so the lookup counters are summed, while
// the rule and label population (identical in both) is read once.
func (c *Concurrent[K]) Stats() Stats {
	var s Stats
	c.store.Locked(func(active, spare *Classifier[K]) {
		s = active.Stats()
		spare.counters.addTo(&s)
	})
	return s
}

// ResetStats clears the lookup counters on both instances.
func (c *Concurrent[K]) ResetStats() {
	c.store.Locked(func(active, spare *Classifier[K]) {
		active.ResetStats()
		spare.ResetStats()
	})
}

// Memory reports the occupied hardware RAM blocks.
func (c *Concurrent[K]) Memory() hwsim.MemoryMap {
	h := c.store.Acquire()
	defer h.Release()
	return h.Value().Memory()
}

// PipelineModel derives the hardware pipeline parameters from the merged
// statistics.
func (c *Concurrent[K]) PipelineModel() hwsim.Pipeline {
	var p hwsim.Pipeline
	c.store.Locked(func(active, spare *Classifier[K]) {
		s := active.Stats()
		spare.counters.addTo(&s)
		p = active.pipelineFor(s)
	})
	return p
}

// Throughput reports the modeled forwarding performance.
func (c *Concurrent[K]) Throughput() Throughput {
	return throughputFrom(c.PipelineModel())
}

// LookupCycles models the clock cycles to stream n headers through the
// lookup pipeline.
func (c *Concurrent[K]) LookupCycles(n int) float64 {
	return c.PipelineModel().CyclesFor(n)
}

// NewConcurrentV4 builds a concurrency-safe classifier pre-loaded with a
// rule set — the concurrent counterpart of NewV4.
func NewConcurrentV4(cfg Config, s *rule.Set) (*Concurrent[lpm.V4], error) {
	var lens []uint8
	if s != nil {
		lens = PrefixLens(s)
	}
	c, err := NewConcurrent[lpm.V4](cfg, lens)
	if err != nil {
		return nil, err
	}
	if s != nil {
		if _, err := c.Build(CompileSet(s)); err != nil {
			return nil, err
		}
	}
	return c, nil
}
