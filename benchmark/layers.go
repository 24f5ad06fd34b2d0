//go:build linux

package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	repro "repro"
	"repro/internal/core"
	"repro/internal/exactmatch"
	"repro/internal/flowcache"
	"repro/internal/fwstate"
	"repro/internal/hwsim"
	"repro/internal/label"
	"repro/internal/lpm"
	"repro/internal/metrics"
	"repro/internal/rangematch"
	"repro/internal/rcu"
	"repro/internal/rule"
	"repro/internal/ruleset"
	"repro/internal/snapfile"
	"repro/internal/tables"
)

// This file holds the traced run's measurements of single layers, each
// taken from outside by timing calls into the layer's exported
// functions on the workload's own rules and headers.

// perOp calls fn, which performs and returns a batch of operations,
// over and over for dur after one warm call and returns nanoseconds per
// operation. Batches keep the clock reads out of the figure.
func perOp(dur time.Duration, fn func() int) float64 {
	fn()
	quiesce()
	ops := 0
	start := time.Now()
	for time.Since(start) < dur {
		ops += fn()
	}
	return float64(time.Since(start)) / float64(ops)
}

// timed returns how long f took.
func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// cursor walks a slice of n items in chunks, wrapping around.
type cursor struct{ pos, n int }

func (c *cursor) next(chunk int) (lo, hi int) {
	if c.pos+chunk > c.n {
		c.pos = 0
	}
	lo, hi = c.pos, min(c.pos+chunk, c.n)
	c.pos = hi
	return lo, hi
}

// fieldEngines measures the field-engine candidates standalone, built
// from the workload's own prefixes, ranges and protocols: the wall-clock
// twin of the paper's Table II. It also returns the summed time of the
// five engines the default configuration uses (for core.combine_self_ns)
// and the label-list lengths they return.
func fieldEngines(in *inputs, dur time.Duration, r results) (configuredNs float64, err error) {
	rules := in.rsA.Rules()
	buf := make([]label.Label, 0, 64)
	// Cycles and list lengths are read in an untimed pass over the pool
	// after each timed one, so that the timed closure is the same for
	// every candidate of a field.
	var lists, lens, maxLen int
	note := func(n int) {
		lists++
		lens += n
		maxLen = max(maxLen, n)
	}

	type lpmEngine interface {
		Insert(lpm.Prefix[lpm.V4], label.Label) hwsim.Cost
		Lookup(lpm.V4, []label.Label) ([]label.Label, hwsim.Cost)
	}
	lens8 := core.PrefixLens(in.rsA)
	for _, cand := range []struct {
		name string
		mk   func() (lpmEngine, error)
	}{
		{"mbt", func() (lpmEngine, error) { return lpm.NewMultiBitTrie[lpm.V4](8) }},
		{"bst", func() (lpmEngine, error) { return lpm.NewBST[lpm.V4](), nil }},
		{"amtrie", func() (lpmEngine, error) {
			return lpm.NewVariableStrideTrie[lpm.V4](lpm.ChooseStrides(32, lens8, 8))
		}},
	} {
		var cycles, lookups int
		for _, side := range []struct {
			field  string
			prefix func(*rule.Rule) rule.Prefix
			addr   func(rule.Header) uint32
		}{
			{"src", func(r *rule.Rule) rule.Prefix { return r.SrcIP }, func(h rule.Header) uint32 { return h.SrcIP }},
			{"dst", func(r *rule.Rule) rule.Prefix { return r.DstIP }, func(h rule.Header) uint32 { return h.DstIP }},
		} {
			eng, err := cand.mk()
			if err != nil {
				return 0, fmt.Errorf("lpm %s: %w", cand.name, err)
			}
			var alloc label.Allocator
			seen := make(map[rule.Prefix]bool)
			for i := range rules {
				if p := side.prefix(&rules[i]); !seen[p] {
					seen[p] = true
					eng.Insert(lpm.V4Prefix(p), alloc.Alloc())
				}
			}
			cur := cursor{n: len(in.pool)}
			ns := perOp(dur, func() int {
				lo, hi := cur.next(burstSize)
				for _, h := range in.pool[lo:hi] {
					eng.Lookup(lpm.V4(side.addr(h)), buf[:0])
				}
				return hi - lo
			})
			for _, h := range in.pool {
				out, cost := eng.Lookup(lpm.V4(side.addr(h)), buf[:0])
				cycles += cost.Cycles
				if cand.name == "mbt" {
					note(len(out))
				}
			}
			lookups += len(in.pool)
			r.set("lpm."+cand.name+"."+side.field+"_ns", ns)
			if cand.name == "mbt" {
				configuredNs += ns
			}
		}
		r.set("lpm."+cand.name+".cycles", float64(cycles)/float64(lookups))
	}

	for _, cand := range []struct {
		name string
		mk   func() rangematch.Engine
	}{
		{"regbank", func() rangematch.Engine { return rangematch.NewRegisterBank(0) }},
		{"segtree", func() rangematch.Engine { return rangematch.NewSegmentTree() }},
		{"rangetree", func() rangematch.Engine { return rangematch.NewRangeTree() }},
	} {
		for _, side := range []struct {
			field string
			span  func(*rule.Rule) rule.PortRange
			port  func(rule.Header) uint16
		}{
			{"dport", func(r *rule.Rule) rule.PortRange { return r.DstPort }, func(h rule.Header) uint16 { return h.DstPort }},
			{"sport", func(r *rule.Rule) rule.PortRange { return r.SrcPort }, func(h rule.Header) uint16 { return h.SrcPort }},
		} {
			if side.field == "sport" && cand.name != "regbank" {
				continue // only needed for the configured engine's share of core.lookup_ns
			}
			eng := cand.mk()
			var alloc label.Allocator
			seen := make(map[rule.PortRange]bool)
			for i := range rules {
				if p := side.span(&rules[i]); !seen[p] {
					seen[p] = true
					if _, err := eng.Insert(p, alloc.Alloc()); err != nil {
						return 0, fmt.Errorf("rangematch %s: %w", cand.name, err)
					}
				}
			}
			cur := cursor{n: len(in.pool)}
			ns := perOp(dur, func() int {
				lo, hi := cur.next(burstSize)
				for _, h := range in.pool[lo:hi] {
					eng.Lookup(side.port(h), buf[:0])
				}
				return hi - lo
			})
			cycles := 0
			for _, h := range in.pool {
				out, cost := eng.Lookup(side.port(h), buf[:0])
				cycles += cost.Cycles
				if cand.name == "regbank" {
					note(len(out))
				}
			}
			if cand.name == "regbank" {
				configuredNs += ns
			}
			if side.field == "dport" {
				r.set("rangematch."+cand.name+".dport_ns", ns)
				r.set("rangematch."+cand.name+".cycles", float64(cycles)/float64(len(in.pool)))
			}
		}
	}

	for _, cand := range []struct {
		name string
		eng  exactmatch.Engine
	}{
		{"direct", exactmatch.NewDirectIndex()},
		{"hash", exactmatch.NewHashTable(64, 0)},
	} {
		var alloc label.Allocator
		seen := make(map[rule.ProtoMatch]bool)
		for i := range rules {
			p := rules[i].Proto
			if seen[p] {
				continue
			}
			seen[p] = true
			if p.IsWildcard() {
				cand.eng.InsertWildcard(alloc.Alloc())
			} else if _, err := cand.eng.Insert(p.Value, alloc.Alloc()); err != nil {
				return 0, fmt.Errorf("exactmatch %s: %w", cand.name, err)
			}
		}
		cur := cursor{n: len(in.pool)}
		ns := perOp(dur, func() int {
			lo, hi := cur.next(burstSize)
			for _, h := range in.pool[lo:hi] {
				cand.eng.Lookup(h.Proto, buf[:0])
			}
			return hi - lo
		})
		if cand.name == "direct" {
			for _, h := range in.pool {
				out, _ := cand.eng.Lookup(h.Proto, buf[:0])
				note(len(out))
			}
		}
		r.set("exactmatch."+cand.name+".ns", ns)
		if cand.name == "direct" {
			configuredNs += ns
		}
	}
	r.set("label.list_len_mean", float64(lens)/float64(lists))
	r.set("label.list_len_max", float64(maxLen))
	return configuredNs, nil
}

// coreLayer measures the bare core.Classifier (no RCU, no wrappers) and
// its concurrent and IPv6 forms. configuredNs is the five field engines'
// standalone time, so that what is left of a scalar lookup is the label
// combination and Rule Filter.
func coreLayer(in *inputs, dur time.Duration, configuredNs float64, r results) error {
	var cls *core.Classifier[lpm.V4]
	build, err := timed(func() (err error) {
		cls, _, err = core.NewV4(core.Config{}, in.rsA)
		return err
	})
	if err != nil {
		return fmt.Errorf("core build: %w", err)
	}
	r.set("core.build_ms", msec(build))

	hdrs := make([]core.Header[lpm.V4], len(in.order))
	for p, i := range in.order {
		hdrs[p] = core.V4Header(in.pool[i])
	}
	out := make([]core.Result, burstSize)
	cur := cursor{n: len(hdrs)}
	cls.ResetStats()
	lookupNs := perOp(dur, func() int {
		lo, hi := cur.next(burstSize)
		for _, h := range hdrs[lo:hi] {
			out[0], _ = cls.Lookup(h)
		}
		return hi - lo
	})
	st := cls.Stats()
	r.set("core.lookup_ns", lookupNs)
	r.set("core.combine_self_ns", lookupNs-configuredNs)
	r.set("core.probes_per_lookup", float64(st.Probes)/float64(st.ProbeOps))
	r.set("core.first_hit_probes_per_lookup", float64(st.FirstHitProbes)/float64(st.ProbeOps))
	r.set("core.cycles_per_lookup", cls.Throughput().CyclesPerPacket)
	r.set("core.burst64_ns", burstSize*perOp(dur, func() int {
		lo, hi := cur.next(burstSize)
		cls.LookupBatchInto(hdrs[lo:hi], out)
		return hi - lo
	}))

	conc, err := core.NewConcurrentV4(core.Config{}, in.rsA)
	if err != nil {
		return err
	}
	r.set("core.concurrent_lookup_ns", perOp(dur, func() int {
		lo, hi := cur.next(burstSize)
		for _, h := range hdrs[lo:hi] {
			out[0], _ = conc.Lookup(h)
		}
		return hi - lo
	}))

	c6, err := repro.New6()
	if err != nil {
		return err
	}
	if _, err := c6.Replace(ruleset.Embed6Set(in.rsA)); err != nil {
		return fmt.Errorf("v6 build: %w", err)
	}
	hdrs6 := make([]rule.Header6, 0, 4096)
	for _, i := range in.order[:min(len(in.order), cap(hdrs6))] {
		hdrs6 = append(hdrs6, ruleset.Embed6Header(in.pool[i]))
	}
	cur6 := cursor{n: len(hdrs6)}
	r.set("core.v6_burst64_ns", burstSize*perOp(dur, func() int {
		lo, hi := cur6.next(burstSize)
		c6.LookupBatchInto(hdrs6[lo:hi], out)
		return hi - lo
	}))

	// Updates on the bare classifier: the schedule's rules in, then out.
	var ins, del time.Duration
	for _, rl := range in.inserts {
		d, err := timed(func() error { _, err := cls.Insert(core.V4Tuple(rl)); return err })
		if err != nil {
			return fmt.Errorf("core insert: %w", err)
		}
		ins += d
	}
	for _, rl := range in.inserts {
		d, err := timed(func() error { _, err := cls.Delete(rl.ID); return err })
		if err != nil {
			return fmt.Errorf("core delete: %w", err)
		}
		del += d
	}
	r.set("core.insert_us", usec(ins)/float64(len(in.inserts)))
	r.set("core.delete_us", usec(del)/float64(len(in.inserts)))

	replace, err := timed(func() error { _, err := cls.Replace(core.CompileSet(in.rsB)); return err })
	if err != nil {
		return fmt.Errorf("core replace: %w", err)
	}
	r.set("core.replace_ms", msec(replace))
	return nil
}

// probedTables measures the two probed-slot tables standalone at the
// workload's sizes. Every pool header is installed once; the ones that
// survived the collisions are the hit set, and headers with a flipped
// address bit, never installed, are the miss set.
func probedTables(in *inputs, dur time.Duration, r results) {
	res := core.Result{RuleID: 1, Priority: 1, Found: true}
	absent := make([]rule.Header, len(in.pool))
	for i, h := range in.pool {
		h.SrcIP ^= 1 << 31
		absent[i] = h
	}
	for _, name := range []string{"fwstate.get_hit_ns", "fwstate.get_miss_ns", "fwstate.put_ns",
		"flowcache.get_hit_ns", "flowcache.get_miss_ns", "flowcache.put_ns"} {
		r.set(name, 0)
	}
	if in.spec.state > 0 {
		tab := fwstate.New(in.spec.state, stateTTL)
		keys := func(hs []rule.Header) []fwstate.Key {
			ks := make([]fwstate.Key, len(hs))
			for i, h := range hs {
				ks[i] = fwstate.KeyOf(h)
			}
			return ks
		}
		all, miss := keys(in.pool), keys(absent)
		_, gen, _ := tab.Get(all[0])
		cur := cursor{n: len(all)}
		r.set("fwstate.put_ns", perOp(dur, func() int {
			lo, hi := cur.next(burstSize)
			for _, k := range all[lo:hi] {
				tab.PutHashed(tab.Hash(k), gen, k, res)
			}
			return hi - lo
		}))
		var hit []fwstate.Key
		for _, k := range all {
			if _, _, ok := tab.Get(k); ok {
				hit = append(hit, k)
			}
		}
		probe := func(ks []fwstate.Key) float64 {
			cur := cursor{n: len(ks)}
			return perOp(dur, func() int {
				lo, hi := cur.next(burstSize)
				for _, k := range ks[lo:hi] {
					tab.GetHashed(tab.Hash(k), k)
				}
				return hi - lo
			})
		}
		r.set("fwstate.get_hit_ns", probe(hit))
		r.set("fwstate.get_miss_ns", probe(miss))
	}
	if in.spec.cache > 0 {
		c := flowcache.New(in.spec.cache)
		_, gen, _ := c.Get(in.pool[0])
		cur := cursor{n: len(in.pool)}
		r.set("flowcache.put_ns", perOp(dur, func() int {
			lo, hi := cur.next(burstSize)
			for _, h := range in.pool[lo:hi] {
				c.PutHashed(c.Hash(h), gen, h, res)
			}
			return hi - lo
		}))
		var hit []rule.Header
		for _, h := range in.pool {
			if _, _, ok := c.Get(h); ok {
				hit = append(hit, h)
			}
		}
		probe := func(hs []rule.Header) float64 {
			cur := cursor{n: len(hs)}
			return perOp(dur, func() int {
				lo, hi := cur.next(burstSize)
				for _, h := range hs[lo:hi] {
					c.GetHashed(c.Hash(h), h)
				}
				return hi - lo
			})
		}
		r.set("flowcache.get_hit_ns", probe(hit))
		r.set("flowcache.get_miss_ns", probe(absent))
	}
}

// parallelPerOp runs fn's batches on n goroutines for dur and returns
// nanoseconds per operation as each goroutine sees it.
func parallelPerOp(n int, dur time.Duration, fn func() int) float64 {
	quiesce()
	var wg sync.WaitGroup
	ns := make([]float64, n)
	for g := range ns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := 0
			start := time.Now()
			for time.Since(start) < dur {
				ops += fn()
			}
			ns[g] = float64(time.Since(start)) / float64(ops)
		}()
	}
	wg.Wait()
	return median(ns)
}

// smallLayers measures the shells around the classifier: the RCU store,
// the table registry, the metrics primitives, the oracle and the
// snapshot file format.
func smallLayers(in *inputs, cfg runConfig, dur time.Duration, r results) error {
	store := rcu.NewStore(new(int), new(int))
	lease := func() int {
		for range burstSize {
			store.Acquire().Release()
		}
		return burstSize
	}
	r.set("rcu.acquire_release_ns", perOp(dur, lease))
	r.set("rcu.acquire_release_par_ns", parallelPerOp(cfg.par, dur, lease))
	nop := func(*int) error { return nil }
	r.set("rcu.update_us", perOp(dur, func() int {
		store.Update(nop, nil) // an empty apply cannot fail
		return 1
	})/1e3)

	reg := tables.NewRegistry()
	create, err := timed(func() error {
		_, err := reg.Create(tables.Spec{Name: benchTable, Cache: in.spec.cache, State: in.spec.state})
		return err
	})
	if err != nil {
		return fmt.Errorf("tables create: %w", err)
	}
	r.set("tables.create_ms", msec(create))
	r.set("tables.resolve_ns", perOp(dur, func() int {
		for range burstSize {
			reg.Resolve(benchTable)
		}
		return burstSize
	}))

	var hist metrics.Histogram
	var d time.Duration
	r.set("metrics.hist_record_ns", perOp(dur, func() int {
		for range burstSize {
			d += 37 * time.Nanosecond
			hist.Record(d % (100 * time.Microsecond))
		}
		return burstSize
	}))
	var ctr metrics.Counter
	r.set("metrics.counter_inc_par_ns", parallelPerOp(cfg.par, dur, func() int {
		for range burstSize {
			ctr.Inc()
		}
		return burstSize
	}))

	cur := cursor{n: len(in.pool)}
	r.set("rule.oracle_match_ns", perOp(dur, func() int {
		lo, hi := cur.next(4)
		for _, h := range in.pool[lo:hi] {
			in.rsA.Match(h)
		}
		return hi - lo
	}))

	path := filepath.Join(cfg.outDir, "snap_"+in.spec.name+".snap")
	snap := snapfile.Snapshot{Attrs: map[string]string{"table": benchTable}, Rules: in.rsA.Rules()}
	write, err := timed(func() error { return snapfile.Save(path, snap) })
	if err != nil {
		return fmt.Errorf("snapfile save: %w", err)
	}
	r.set("snapfile.write_ms", msec(write))
	read, err := timed(func() error {
		back, err := snapfile.Load(path)
		if err == nil && len(back.Rules) != len(snap.Rules) {
			err = fmt.Errorf("read %d of %d rules back", len(back.Rules), len(snap.Rules))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("snapfile load: %w", err)
	}
	r.set("snapfile.read_ms", msec(read))
	return nil
}

// baselineRules is how many of the workload's rules the Table I
// comparators are built over: RFC needs 27 s to build 10 000 rules.
const baselineRules = 1000

// otherCompositions measures what no workload serves from: the same
// rules under WithShards(4), the rent record of the shard layer, and,
// on the one workload that asks for them, the Table I baselines over the
// first baselineRules rules.
func otherCompositions(in *inputs, dur time.Duration, r results) error {
	hdrs := in.seq
	out := make([]repro.Result, burstSize)
	batch64 := func(eng repro.Engine) float64 {
		cur := cursor{n: len(hdrs)}
		return burstSize * perOp(dur, func() int {
			lo, hi := cur.next(burstSize)
			eng.LookupBatchInto(hdrs[lo:hi], out)
			return hi - lo
		})
	}
	sharded, err := repro.New(repro.WithRules(in.rsA), repro.WithShards(4))
	if err != nil {
		return fmt.Errorf("sharded build: %w", err)
	}
	r.set("shard.batch64_ns_x4", batch64(sharded))
	r.set("shard.mem_kib_x4", float64(sharded.Memory().TotalBytes())/1024)
	replace, err := timed(func() error { _, err := sharded.Replace(in.rsB.Rules()); return err })
	if err != nil {
		return fmt.Errorf("sharded replace: %w", err)
	}
	r.set("shard.replace_ms_x4", msec(replace))

	few, err := rule.NewSet(in.rsA.Rules()[:min(baselineRules, in.rsA.Len())])
	if err != nil {
		return err
	}
	for _, b := range []struct {
		name    string
		backend repro.Backend
	}{
		{"linear", repro.BackendLinear}, {"tcam", repro.BackendTCAM}, {"rfc", repro.BackendRFC},
		{"hicuts", repro.BackendHiCuts}, {"tss", repro.BackendTSS},
	} {
		if !in.spec.baselines {
			r.set("baseline."+b.name+"_ns", 0)
			continue
		}
		eng, err := repro.New(repro.WithBackend(b.backend), repro.WithRules(few))
		if err != nil {
			return fmt.Errorf("baseline %s: %w", b.name, err)
		}
		cur := cursor{n: len(hdrs)}
		r.set("baseline."+b.name+"_ns", perOp(dur, func() int {
			lo, hi := cur.next(16)
			for _, h := range hdrs[lo:hi] {
				out[0], _ = eng.Lookup(h)
			}
			return hi - lo
		}))
	}
	return nil
}

// allocsPerCall reports heap allocations per call of f.
func allocsPerCall(calls int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls)
}
