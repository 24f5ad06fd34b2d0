package core

import (
	"testing"

	"repro/internal/lpm"
	"repro/internal/ruleset"
)

// BenchmarkDeleteAscendingPriority empties an ACL-10K classifier in rule-ID
// order. ClassBench rules carry priority = position, so every Delete takes
// the current best-priority rule out from under the wildcard labels — the
// order in which recomputing a label's priority bound is most expensive.
// One op is the whole delete-all; the build is not timed.
func BenchmarkDeleteAscendingPriority(b *testing.B) {
	s, err := ruleset.Generate(ruleset.Config{Family: ruleset.ACL, Size: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := CompileSet(s)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := New[lpm.V4](Config{}, PrefixLens(s))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Build(ts); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := range ts {
			if _, err := c.Delete(ts[j].ID); err != nil {
				b.Fatal(err)
			}
		}
	}
}
