package repro

// Design-choice ablations of the paper's decomposition architecture
// (PAPER.md): each sweeps one decision-control choice on a fixed ruleset
// and reports the modeled cost beside the measured ns/op.
//
//	BenchmarkAblationStride      — MBT stride: lookup depth vs expansion memory
//	BenchmarkAblationULI         — pruned vs exhaustive label combination (Eq. 1)
//	BenchmarkAblationRangeEngine — port engine inside the full classifier
//	BenchmarkAblationOptimizer   — label-rule mapping optimization (Section III.D)
//
// The paper's own tables and figures are printed by cmd/lookupbench; the
// serving path's performance is recorded by the benchmark ledger
// (go run ./benchmark).

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lpm"
	"repro/internal/rule"
	"repro/internal/ruleset"
)

// benchWorkload caches rulesets and traces across benchmarks.
type benchWorkload struct {
	set   *rule.Set
	trace []rule.Header
}

var benchCache = map[string]benchWorkload{}

func workload(b *testing.B, fam ruleset.Family, size, traceN int) benchWorkload {
	b.Helper()
	key := fmt.Sprintf("%v-%d-%d", fam, size, traceN)
	if w, ok := benchCache[key]; ok {
		return w
	}
	s, err := ruleset.Generate(ruleset.Config{Family: fam, Size: size, Seed: 1})
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	trace, err := ruleset.GenerateTrace(s, ruleset.TraceConfig{Size: traceN, HitRatio: 0.9, Seed: 2})
	if err != nil {
		b.Fatalf("GenerateTrace: %v", err)
	}
	w := benchWorkload{set: s, trace: trace}
	benchCache[key] = w
	return w
}

// BenchmarkAblationStride sweeps the MBT stride: lookup depth vs
// expansion memory.
func BenchmarkAblationStride(b *testing.B) {
	w := workload(b, ruleset.ACL, 5000, 8192)
	for _, stride := range []int{2, 4, 8, 16} {
		stride := stride
		b.Run(fmt.Sprintf("stride-%d", stride), func(b *testing.B) {
			c, _, err := core.NewV4(core.Config{LPM: core.LPMMultiBitTrie, MBTStride: stride}, w.set)
			if err != nil {
				b.Fatal(err)
			}
			headers := make([]core.Header[lpm.V4], len(w.trace))
			for i, h := range w.trace {
				headers[i] = core.V4Header(h)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(headers[i%len(headers)])
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Memory().TotalBytes()), "bytes")
			b.ReportMetric(c.Throughput().CyclesPerPacket, "cycles/pkt")
		})
	}
}

// BenchmarkAblationULI compares the pruned ULI against exhaustive
// combination: Eq. 1's worst-case LCT vs the decision controller's
// optimization.
func BenchmarkAblationULI(b *testing.B) {
	w := workload(b, ruleset.FW, 5000, 8192)
	for _, mode := range []struct {
		name    string
		combine core.CombineMode
	}{
		{"pruned", core.CombinePruned},
		{"exhaustive", core.CombineExhaustive},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			c, _, err := core.NewV4(core.Config{Combine: mode.combine}, w.set)
			if err != nil {
				b.Fatal(err)
			}
			headers := make([]core.Header[lpm.V4], len(w.trace))
			for i, h := range w.trace {
				headers[i] = core.V4Header(h)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(headers[i%len(headers)])
			}
			b.StopTimer()
			st := c.Stats()
			if st.ProbeOps > 0 {
				b.ReportMetric(float64(st.Probes)/float64(st.ProbeOps), "probes/lookup")
			}
		})
	}
}

// BenchmarkAblationRangeEngine compares the port engines inside the full
// classifier across the range-heavy FW family.
func BenchmarkAblationRangeEngine(b *testing.B) {
	w := workload(b, ruleset.FW, 5000, 8192)
	for _, mode := range []struct {
		name string
		alg  core.RangeAlgo
	}{
		{"RegisterBank", core.RangeRegisterBank},
		{"SegmentTree", core.RangeSegmentTree},
		{"RangeTree", core.RangeRangeTree},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			c, _, err := core.NewV4(core.Config{Range: mode.alg}, w.set)
			if err != nil {
				b.Fatal(err)
			}
			headers := make([]core.Header[lpm.V4], len(w.trace))
			for i, h := range w.trace {
				headers[i] = core.V4Header(h)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(headers[i%len(headers)])
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Memory().TotalBytes()), "bytes")
		})
	}
}

// BenchmarkAblationOptimizer measures the label-rule mapping optimization
// (Section III.D): probes per lookup with and without shadowed-rule
// removal.
func BenchmarkAblationOptimizer(b *testing.B) {
	w := workload(b, ruleset.FW, 5000, 8192)
	opt, removed, err := core.OptimizeSet(w.set)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		set  *rule.Set
	}{
		{"raw", w.set},
		{"optimized", opt},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			c, _, err := core.NewV4(core.Config{}, tc.set)
			if err != nil {
				b.Fatal(err)
			}
			headers := make([]core.Header[lpm.V4], len(w.trace))
			for i, h := range w.trace {
				headers[i] = core.V4Header(h)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(headers[i%len(headers)])
			}
			b.StopTimer()
			st := c.Stats()
			if st.ProbeOps > 0 {
				b.ReportMetric(float64(st.Probes)/float64(st.ProbeOps), "probes/lookup")
			}
			b.ReportMetric(float64(len(removed)), "rules-removed")
		})
	}
}
