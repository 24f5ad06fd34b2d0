package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lpm"
	"repro/internal/rule"
	"repro/internal/ruleset"
)

// TestConcurrentChurnRace is the data-race regression test for the old
// "Lookup is not safe for concurrent use" caveat: reader goroutines
// classify continuously while the writer churns inserts and deletes.
// Run with -race; correctness of each observed snapshot is checked
// against the tuple the lookup was sampled from.
func TestConcurrentChurnRace(t *testing.T) {
	c, err := NewConcurrent[lpm.V4](Config{LPM: LPMMultiBitTrie, Range: RangeSegmentTree}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ruleset.Generate(ruleset.Config{Family: ruleset.IPC, Size: 400, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	candidates := pool.Rules()

	var stop atomic.Bool
	var lookups atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(1000 + r)))
			var batch [16]Header[lpm.V4]
			for !stop.Load() {
				// Mix single lookups and batches; headers sampled from the
				// candidate pool so some hit and some miss.
				cand := candidates[rnd.Intn(len(candidates))]
				h := V4Header(ruleset.SampleHeader(rnd, &cand))
				res, cost := c.Lookup(h)
				if res.Found && cost.Cycles <= 0 {
					t.Error("found result with non-positive cycle cost")
					return
				}
				for i := range batch {
					cand := candidates[rnd.Intn(len(candidates))]
					batch[i] = V4Header(ruleset.SampleHeader(rnd, &cand))
				}
				rs, _ := c.LookupBatch(batch[:])
				if len(rs) != len(batch) {
					t.Errorf("batch returned %d results", len(rs))
					return
				}
				lookups.Add(int64(1 + len(batch)))
				_ = c.Stats()
			}
		}()
	}

	rnd := rand.New(rand.NewSource(7))
	live := make([]int, 0, len(candidates))
	nextIdx := 0
	for op := 0; op < 1500; op++ {
		if nextIdx < len(candidates) && (len(live) == 0 || rnd.Intn(3) > 0) {
			r := candidates[nextIdx]
			nextIdx++
			if _, err := c.Insert(V4Tuple(r)); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			live = append(live, r.ID)
			continue
		}
		if len(live) == 0 {
			break // candidate pool exhausted and table drained
		}
		i := rnd.Intn(len(live))
		if _, err := c.Delete(live[i]); err != nil {
			t.Fatalf("op %d delete(%d): %v", op, live[i], err)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	// Keep the table live until every reader has observed at least one
	// lookup, so the churn and the reads genuinely overlap.
	for lookups.Load() == 0 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	if c.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(live))
	}
	if lookups.Load() == 0 {
		t.Fatal("readers performed no lookups")
	}
	if got := c.Stats().ProbeOps; got == 0 {
		t.Error("merged stats lost the reader lookups")
	}
}

// TestConcurrentFailedBuildLeavesNoPhantoms is the regression test for
// the snapshot-divergence bug: a Build that fails partway must roll the
// spare instance back, or the partially inserted rules become visible
// once a later successful update publishes that instance.
func TestConcurrentFailedBuildLeavesNoPhantoms(t *testing.T) {
	c, err := NewConcurrent[lpm.V4](Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id, prio int, last byte) Tuple[lpm.V4] {
		return V4Tuple(rule.Rule{
			ID: id, Priority: prio,
			SrcIP:   rule.Prefix{Addr: 0x0a000000 | uint32(last), Len: 32},
			SrcPort: rule.FullPortRange(), DstPort: rule.ExactPort(80),
			Proto:  rule.ExactProto(rule.ProtoTCP),
			Action: rule.ActionPermit,
		})
	}
	if _, err := c.Insert(mk(9, 9, 1)); err != nil {
		t.Fatal(err)
	}
	// Build with a fresh rule followed by a duplicate of rule 9: the
	// batch must fail atomically.
	if _, err := c.Build([]Tuple[lpm.V4]{mk(2, 2, 2), mk(9, 9, 1)}); err == nil {
		t.Fatal("duplicate build should fail")
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len after failed build = %d, want 1", got)
	}
	phantom := Header[lpm.V4]{Src: lpm.V4(0x0a000002), DstPort: 80, Proto: rule.ProtoTCP}
	if res, _ := c.Lookup(phantom); res.Found {
		t.Fatalf("phantom rule visible after failed build: %+v", res)
	}
	// Publish the (previously failing) spare via successful updates and
	// re-check both instances stayed in sync.
	for i := 0; i < 2; i++ {
		if _, err := c.Insert(mk(100+i, 100+i, byte(10+i))); err != nil {
			t.Fatal(err)
		}
		if res, _ := c.Lookup(phantom); res.Found {
			t.Fatalf("phantom rule visible after publish %d: %+v", i, res)
		}
	}
	if _, err := c.Delete(9); err != nil {
		t.Fatalf("instances diverged: %v", err)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

// TestConcurrentMatchesSequential verifies the concurrent wrapper is
// observationally identical to the bare classifier when used serially.
func TestConcurrentMatchesSequential(t *testing.T) {
	s, err := ruleset.Generate(ruleset.Config{Family: ruleset.ACL, Size: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := ruleset.GenerateTrace(s, ruleset.TraceConfig{Size: 600, HitRatio: 0.8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewConcurrentV4(Config{}, s)
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := NewV4(Config{}, s)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range trace {
		got, gc := cc.Lookup(V4Header(h))
		want, wc := sc.Lookup(V4Header(h))
		if got != want || gc != wc {
			t.Fatalf("header %d: concurrent (%+v,%+v), sequential (%+v,%+v)", i, got, gc, want, wc)
		}
	}
	if cc.Len() != sc.Len() {
		t.Fatalf("Len %d vs %d", cc.Len(), sc.Len())
	}
	// Both instances saw every lookup replayed... the concurrent wrapper
	// routes all of the serial lookups to the active instance, so the
	// merged counters must match the sequential classifier's.
	if g, w := cc.Stats().ProbeOps, sc.Stats().ProbeOps; g != w {
		t.Fatalf("ProbeOps %d vs %d", g, w)
	}
	if g, w := cc.Throughput(), sc.Throughput(); g != w {
		t.Fatalf("Throughput %+v vs %+v", g, w)
	}
	// Churn the concurrent wrapper and re-check a differential sample.
	rs := s.Rules()
	for i := 0; i < 50; i++ {
		if _, err := cc.Delete(rs[i].ID); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Delete(rs[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range trace[:200] {
		got, _ := cc.Lookup(V4Header(h))
		want, _ := sc.Lookup(V4Header(h))
		if got != want {
			t.Fatalf("after churn: %+v vs %+v", got, want)
		}
	}
}

// TestConcurrentStatsSurviveReplace checks that a whole-ruleset swap does
// not lose lookup accounting: the counters of the retired pair carry over
// into the new one, so Stats and the pipeline model stay cumulative across
// Replace, and ResetStats still zeroes them — for good, not until the next
// swap brings retired counts back.
func TestConcurrentStatsSurviveReplace(t *testing.T) {
	s, err := ruleset.Generate(ruleset.Config{Family: ruleset.FW, Size: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := ruleset.GenerateTrace(s, ruleset.TraceConfig{Size: 300, HitRatio: 0.8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConcurrentV4(Config{}, s)
	if err != nil {
		t.Fatal(err)
	}
	lookups := func() {
		for _, h := range trace {
			c.Lookup(V4Header(h))
		}
	}
	// An Insert in between flips the pair, so both instances hold counts
	// by the time they are retired.
	lookups()
	extra := V4Tuple(rule.Rule{ID: 9001, Priority: 9001, SrcPort: rule.FullPortRange(), DstPort: rule.FullPortRange()})
	if _, err := c.Insert(extra); err != nil {
		t.Fatal(err)
	}
	lookups()
	before := c.Stats()
	if before.ProbeOps != 2*len(trace) || before.Probes == 0 || before.EngineCycles == 0 || before.MaxListLen == 0 {
		t.Fatalf("stats before replace: %+v", before)
	}
	if _, err := c.Replace(CompileSet(s)); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	after.Rules, after.Labels = before.Rules, before.Labels // the population followed the swap; the counters must not move
	if after != before {
		t.Fatalf("Replace changed the lookup counters:\nbefore %+v\nafter  %+v", before, after)
	}
	lookups()
	if got := c.Stats().ProbeOps; got != 3*len(trace) {
		t.Fatalf("ProbeOps = %d after replace and %d more lookups, want %d", got, len(trace), 3*len(trace))
	}
	c.ResetStats()
	if _, err := c.Replace(nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got != (Stats{}) {
		t.Fatalf("stats after ResetStats and a reset: %+v", got)
	}
}
