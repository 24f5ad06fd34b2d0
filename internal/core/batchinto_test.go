package core

import (
	"testing"

	"repro/internal/lpm"
	"repro/internal/rule"
	"repro/internal/ruleset"
)

// TestLookupBatchIntoMatchesBatch pins the caller-owned-slab batch path
// to the allocating one, on both the bare classifier and the RCU
// wrapper.
func TestLookupBatchIntoMatchesBatch(t *testing.T) {
	s, err := ruleset.Generate(ruleset.Config{Family: ruleset.ACL, Size: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := ruleset.GenerateTrace(s, ruleset.TraceConfig{Size: 256, HitRatio: 0.8, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	headers := make([]Header[lpm.V4], len(trace))
	for i, h := range trace {
		headers[i] = V4Header(h)
	}
	cc, err := NewConcurrentV4(Config{}, s)
	if err != nil {
		t.Fatal(err)
	}
	want, wantCost := cc.LookupBatch(headers)
	out := make([]Result, len(headers))
	cost := cc.LookupBatchInto(headers, out)
	if cost != wantCost {
		t.Errorf("LookupBatchInto cost %+v, want %+v", cost, wantCost)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("result %d: %+v, want %+v", i, out[i], want[i])
		}
	}
}

// TestLookupBatchIntoZeroAllocs is the runtime half of the
// //repro:noalloc annotations on Classifier.LookupBatchInto and
// Concurrent.LookupBatchInto.
func TestLookupBatchIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI step")
	}
	s, err := ruleset.Generate(ruleset.Config{Family: ruleset.ACL, Size: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := ruleset.GenerateTrace(s, ruleset.TraceConfig{Size: 64, HitRatio: 0.9, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	headers := make([]Header[lpm.V4], len(trace))
	for i, h := range trace {
		headers[i] = V4Header(h)
	}
	out := make([]Result, len(headers))
	cl := buildClassifier(t, Config{}, s)
	cc, err := NewConcurrentV4(Config{}, s)
	if err != nil {
		t.Fatal(err)
	}
	cl.LookupBatchInto(headers, out) // warm the pooled buffers
	cc.LookupBatchInto(headers, out)
	allocs := testing.AllocsPerRun(100, func() {
		cl.LookupBatchInto(headers, out)
		cc.LookupBatchInto(headers, out)
	})
	if allocs != 0 {
		t.Errorf("LookupBatchInto allocates %.1f objects/op steady-state, want 0", allocs)
	}
}

// TestSplit64Config wires the LPMSplit64 selection through the generic
// classifier: valid for the 128-bit key, rejected for IPv4.
func TestSplit64Config(t *testing.T) {
	cfg := Config{LPM: LPMSplit64}
	c6, err := NewConcurrent[lpm.V6](cfg)
	if err != nil {
		t.Fatalf("LPMSplit64 over V6: %v", err)
	}
	r := rule.Rule6{
		ID: 1, Priority: 1,
		SrcIP:   rule.Prefix6{Addr: rule.Addr6{Hi: 0x20010db8_00000000}, Len: 96},
		DstIP:   rule.Prefix6{Len: 0},
		SrcPort: rule.FullPortRange(), DstPort: rule.FullPortRange(),
		Proto:  rule.AnyProto(),
		Action: rule.ActionPermit,
	}
	if _, err := c6.Insert(V6Tuple(r)); err != nil {
		t.Fatal(err)
	}
	hit := rule.Header6{SrcIP: rule.Addr6{Hi: 0x20010db8_00000000, Lo: 42}, Proto: rule.ProtoTCP}
	res, _ := c6.Lookup(V6Header(hit))
	if !res.Found || res.RuleID != 1 {
		t.Fatalf("split64 lookup = %+v, want rule 1", res)
	}
	miss := rule.Header6{SrcIP: rule.Addr6{Hi: 0x20010db8_00000001}, Proto: rule.ProtoTCP}
	if res, _ := c6.Lookup(V6Header(miss)); res.Found {
		t.Fatalf("split64 lookup matched %+v, want miss", res)
	}
	if _, err := NewConcurrent[lpm.V4](cfg); err == nil {
		t.Fatal("LPMSplit64 over V4 must be rejected")
	}
}
