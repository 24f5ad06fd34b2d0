package repro_test

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
	"repro/internal/ruleset"
)

// replaceVariants enumerates the engine compositions every backend's
// Replace contract is verified under: unwrapped, sharded, flow-cached,
// and both wrappers together.
func replaceVariants(b repro.Backend) map[string][]repro.Option {
	return map[string][]repro.Option{
		"plain":         {repro.WithBackend(b)},
		"shards4":       {repro.WithBackend(b), repro.WithShards(4)},
		"cache":         {repro.WithBackend(b), repro.WithFlowCache(1 << 12)},
		"shards4+cache": {repro.WithBackend(b), repro.WithShards(4), repro.WithFlowCache(1 << 12)},
	}
}

// generation is a ruleset whose verdicts are recognizable: every rule ID
// lives in [idBase, idBase+len), and every probe header matches at least
// the catch-all, so a lookup's RuleID always names the generation that
// served it.
type generation struct {
	rules  []repro.Rule
	idBase int
	rs     *repro.RuleSet
}

// makeGeneration builds one such ruleset: eight /8-specific rules plus a
// full-wildcard catch-all.
func makeGeneration(t *testing.T, idBase int, action repro.Action) generation {
	t.Helper()
	var rules []repro.Rule
	for k := 1; k <= 8; k++ {
		rules = append(rules, repro.Rule{
			ID: idBase + k, Priority: 10 + k,
			SrcIP:   repro.Prefix{Addr: uint32(k) << 24, Len: 8},
			SrcPort: repro.FullPortRange(), DstPort: repro.FullPortRange(),
			Proto: repro.AnyProto(), Action: repro.ActionQueue,
		})
	}
	rules = append(rules, repro.Rule{
		ID: idBase + 500, Priority: 1000,
		SrcPort: repro.FullPortRange(), DstPort: repro.FullPortRange(),
		Proto: repro.AnyProto(), Action: action,
	})
	rs, err := repro.NewRuleSet(rules)
	if err != nil {
		t.Fatal(err)
	}
	return generation{rules: rules, idBase: idBase, rs: rs}
}

// owns reports whether a result's rule ID belongs to this generation.
func (g generation) owns(id int) bool { return id >= g.idBase && id < g.idBase+1000 }

// churnProbes is the header set the churn readers replay: half hit the
// /8-specific rules, half fall through to the catch-all.
func churnProbes() []repro.Header {
	var hs []repro.Header
	for k := 1; k <= 8; k++ {
		hs = append(hs, repro.Header{SrcIP: uint32(k)<<24 | 9, DstIP: 7, SrcPort: 80, DstPort: 443, Proto: repro.ProtoTCP})
	}
	for k := 100; k < 108; k++ {
		hs = append(hs, repro.Header{SrcIP: uint32(k) << 24, DstIP: 3, SrcPort: 1, DstPort: 2, Proto: repro.ProtoUDP})
	}
	return hs
}

// TestReplaceConformanceDifferential swaps whole rulesets on every
// backend/wrapper combination and differential-checks the result
// against the linear oracle after each swap, including the reset and
// failed-swap edge cases.
func TestReplaceConformanceDifferential(t *testing.T) {
	corpus := conformanceCorpus(t)
	a, bset := corpus["acl"], corpus["fw"]
	for _, b := range repro.Backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			for variant, opts := range replaceVariants(b) {
				eng, err := repro.New(append(opts, repro.WithRules(a))...)
				if err != nil {
					t.Fatalf("%s: New: %v", variant, err)
				}
				// Swap to an unrelated ruleset: population, snapshot and
				// lookups must all follow it.
				cost, err := eng.Replace(bset.Rules())
				if err != nil {
					t.Fatalf("%s: Replace: %v", variant, err)
				}
				if cost.Cycles <= 0 {
					t.Errorf("%s: replace cost = %+v", variant, cost)
				}
				if eng.Len() != bset.Len() {
					t.Fatalf("%s: Len = %d after replace, want %d", variant, eng.Len(), bset.Len())
				}
				checkAgainstOracle(t, eng, bset, corpusTrace(t, bset, 150, 211))
				snap := eng.Snapshot()
				if len(snap) != bset.Len() {
					t.Fatalf("%s: Snapshot has %d rules, want %d", variant, len(snap), bset.Len())
				}
				for i := 1; i < len(snap); i++ {
					if snap[i-1].ID >= snap[i].ID {
						t.Fatalf("%s: Snapshot not ID-sorted at %d", variant, i)
					}
				}
				// A rejected replacement must leave the published ruleset
				// untouched.
				dup := []repro.Rule{bset.Rules()[0], bset.Rules()[0]}
				if _, err := eng.Replace(dup); err == nil {
					t.Fatalf("%s: duplicate-ID replace should fail", variant)
				}
				bad := bset.Rules()[0]
				bad.Priority = 0
				if _, err := eng.Replace([]repro.Rule{bad}); err == nil {
					t.Fatalf("%s: zero-priority replace should fail", variant)
				}
				if eng.Len() != bset.Len() {
					t.Fatalf("%s: failed replace changed Len to %d", variant, eng.Len())
				}
				checkAgainstOracle(t, eng, bset, corpusTrace(t, bset, 60, 212))
				// Replace(nil) is the atomic reset.
				if _, err := eng.Replace(nil); err != nil {
					t.Fatalf("%s: reset: %v", variant, err)
				}
				if eng.Len() != 0 || len(eng.Snapshot()) != 0 {
					t.Fatalf("%s: reset left %d rules", variant, eng.Len())
				}
				if res, _ := eng.Lookup(repro.Header{SrcIP: 1}); res.Found {
					t.Fatalf("%s: lookup found %d in a reset engine", variant, res.RuleID)
				}
				// And the engine is fully usable after a reset.
				if _, err := eng.Replace(a.Rules()); err != nil {
					t.Fatalf("%s: replace after reset: %v", variant, err)
				}
				checkAgainstOracle(t, eng, a, corpusTrace(t, a, 60, 213))
			}
		})
	}
}

// TestReplaceAtomicUnderChurn is the swap-atomicity contract, run with
// -race in CI: while a writer flips the whole ruleset between two
// recognizable generations, concurrent readers must only ever observe
// verdicts belonging to exactly one generation — never a miss, never a
// mixed batch (flow-cached engines excepted for mixing, see below), and
// never a stale verdict after a swap has returned.
func TestReplaceAtomicUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test")
	}
	genA := makeGeneration(t, 0, repro.ActionPermit)
	genB := makeGeneration(t, 1000, repro.ActionDeny)
	probes := churnProbes()

	for _, b := range repro.Backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			for variant, opts := range replaceVariants(b) {
				variant, opts := variant, opts
				t.Run(variant, func(t *testing.T) {
					runReplaceChurn(t, opts, genA, genB, probes)
				})
			}
		})
	}
}

func runReplaceChurn(t *testing.T, opts []repro.Option, genA, genB generation, probes []repro.Header) {
	t.Helper()
	eng, err := repro.New(append(opts, repro.WithRules(genA.rs))...)
	if err != nil {
		t.Fatal(err)
	}
	_, cached := eng.(interface{ CacheStats() repro.FlowCacheStats })

	// classify maps a result to its generation; "" means the result
	// belongs to neither (an atomicity violation).
	classify := func(res repro.Result) string {
		switch {
		case res.Found && genA.owns(res.RuleID):
			return "A"
		case res.Found && genB.owns(res.RuleID):
			return "B"
		default:
			return ""
		}
	}

	var stop atomic.Bool
	errc := make(chan error, 8)
	report := func(format, who string, args ...any) {
		select {
		case errc <- fmt.Errorf("%s: "+format, append([]any{who}, args...)...):
		default:
		}
		stop.Store(true)
	}

	var wg sync.WaitGroup
	// Single-lookup readers: every result must belong to a generation.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			who := fmt.Sprintf("reader%d", w)
			for i := 0; !stop.Load(); i++ {
				h := probes[i%len(probes)]
				res, _ := eng.Lookup(h)
				if classify(res) == "" {
					report("header %+v produced out-of-generation result %+v", who, h, res)
					return
				}
			}
		}(w)
	}
	// Batch readers: additionally, a batch on an uncached engine must be
	// generation-homogeneous — the whole batch reads one published
	// snapshot (per engine or per replica set), so a mixed batch means a
	// half-applied swap leaked.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			who := fmt.Sprintf("batcher%d", w)
			for !stop.Load() {
				out := eng.LookupBatch(probes)
				seen := ""
				for i, res := range out {
					g := classify(res)
					if g == "" {
						report("batch[%d] (header %+v) produced out-of-generation result %+v", who, i, probes[i], res)
						return
					}
					if cached {
						continue // a racing fill may legally mix generations mid-swap
					}
					if seen == "" {
						seen = g
					} else if g != seen {
						report("batch mixed generations %s and %s at index %d — half-applied swap observed", who, seen, g, i)
						return
					}
				}
			}
		}(w)
	}
	// Writer: flip generations; immediately after each Replace returns,
	// a lookup must see the NEW generation — the flow cache may never
	// serve a pre-swap verdict once the swap completed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		gens := []generation{genB, genA}
		deadline := time.Now().Add(300 * time.Millisecond)
		for i := 0; time.Now().Before(deadline) && !stop.Load(); i++ {
			g := gens[i%2]
			if _, err := eng.Replace(g.rules); err != nil {
				report("replace: %v", "writer", err)
				return
			}
			for _, h := range probes[:4] {
				res, _ := eng.Lookup(h)
				if !res.Found || !g.owns(res.RuleID) {
					report("post-swap lookup of %+v returned stale result %+v", "writer", h, res)
					return
				}
			}
		}
		stop.Store(true)
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// Quiesced end state must match the last generation's oracle.
	final := eng.Snapshot()
	if len(final) == 0 {
		t.Fatal("engine empty after churn")
	}
	owner := genA
	if genB.owns(final[0].ID) {
		owner = genB
	}
	checkAgainstOracle(t, eng, owner.rs, probes)
}

// TestReplaceEqualsFreshBuild pins what a swap leaves behind: after
// Replace(B) an engine that held A, or held nothing, is indistinguishable
// from one built from B — same Snapshot, Len and modeled Memory — because Replace builds
// fresh rather than tearing A down (a torn-down trie keeps the nodes A
// grew, and an AM-Trie keeps A's strides). IPv4 across the LPM modes, and
// the IPv6 domain against the same rules inserted one by one.
func TestReplaceEqualsFreshBuild(t *testing.T) {
	corpus := conformanceCorpus(t)
	a, b := corpus["acl"], corpus["fw"]
	for name, cfg := range map[string]repro.Config{
		"default": {},
		"bst":     {LPM: repro.LPMBinarySearchTree, Range: repro.RangeSegmentTree},
		"amtrie":  {LPM: repro.LPMAMTrie, Range: repro.RangeRangeTree, Exact: repro.ExactHashTable},
	} {
		fresh, err := repro.New(repro.WithConfig(cfg), repro.WithRules(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Replace(B) over A, and over an empty engine, must both leave what
		// loading B at construction leaves.
		for from, opts := range map[string][]repro.Option{
			"A":     {repro.WithConfig(cfg), repro.WithRules(a)},
			"empty": {repro.WithConfig(cfg)},
		} {
			swapped, err := repro.New(opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, from, err)
			}
			if _, err := swapped.Replace(b.Rules()); err != nil {
				t.Fatalf("%s/%s: Replace: %v", name, from, err)
			}
			if got, want := swapped.Len(), fresh.Len(); got != want {
				t.Errorf("%s/%s: Len = %d, fresh build has %d", name, from, got, want)
			}
			if got, want := swapped.Snapshot(), fresh.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: Snapshot differs from a fresh build's", name, from)
			}
			if got, want := swapped.Memory(), fresh.Memory(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: Memory = %+v\nfresh build: %+v", name, from, got, want)
			}
		}
	}

	swapped6, err := repro.New6()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := swapped6.Replace(ruleset.Embed6Set(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := swapped6.Replace(ruleset.Embed6Set(b)); err != nil {
		t.Fatal(err)
	}
	fresh6, err := repro.New6()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ruleset.Embed6Set(b) {
		if _, err := fresh6.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := swapped6.Len(), fresh6.Len(); got != want {
		t.Errorf("v6: Len = %d, fresh build has %d", got, want)
	}
	if got, want := swapped6.Snapshot(), fresh6.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("v6: Snapshot differs from a fresh build's")
	}
	if got, want := swapped6.Memory(), fresh6.Memory(); !reflect.DeepEqual(got, want) {
		t.Errorf("v6: Memory = %+v\nfresh build: %+v", got, want)
	}
}
