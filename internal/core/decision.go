package core

import (
	"fmt"

	"repro/internal/lpm"
	"repro/internal/rule"
)

// This file hosts the decision-control-domain functions that run on the
// host CPU in the paper's system: ruleset optimization before download
// (Section III.D) and compilation of the rule model into lookup tuples.

// OptimizeSet applies the label-rule mapping optimization: rules that can
// never be the HPMR because an earlier rule covers them in every field are
// removed, reducing per-field overlap and therefore label-list length and
// combination time. It returns the optimized set and the removed rule IDs.
func OptimizeSet(s *rule.Set) (*rule.Set, []int, error) {
	shadowed := s.Shadowed()
	if len(shadowed) == 0 {
		return s, nil, nil
	}
	drop := make(map[int]bool, len(shadowed))
	for _, id := range shadowed {
		drop[id] = true
	}
	kept := make([]rule.Rule, 0, s.Len()-len(shadowed))
	for _, r := range s.Rules() {
		if !drop[r.ID] {
			kept = append(kept, r)
		}
	}
	out, err := rule.NewSet(kept)
	if err != nil {
		return nil, nil, fmt.Errorf("optimize ruleset: %w", err)
	}
	return out, shadowed, nil
}

// CompileSet converts a rule set into IPv4 lookup tuples in priority
// order.
func CompileSet(s *rule.Set) []Tuple[lpm.V4] {
	out := make([]Tuple[lpm.V4], 0, s.Len())
	for _, r := range s.Rules() {
		out = append(out, V4Tuple(r))
	}
	return out
}

// PrefixLens gathers the prefix-length histogram input for the AM-Trie
// stride chooser from both IP fields.
func PrefixLens(s *rule.Set) []uint8 {
	out := make([]uint8, 0, 2*s.Len())
	for _, r := range s.Rules() {
		out = append(out, r.SrcIP.Len, r.DstIP.Len)
	}
	return out
}

// NewV4 builds a classifier pre-loaded with a rule set, the common
// decision-control flow: optimize, select algorithms, compile and
// download. It returns the classifier and the total update cost.
func NewV4(cfg Config, s *rule.Set) (*Classifier[lpm.V4], Throughput, error) {
	c, _, err := buildFresh(cfg, CompileSet(s))
	if err != nil {
		return nil, Throughput{}, err
	}
	return c, c.Throughput(), nil
}
