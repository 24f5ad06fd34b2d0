//go:build linux

package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/rule"
)

// firstMatch is rule.Set.Match without the full scan: Set.Rules() is in
// priority order, so the first matching rule is the one Match returns.
// A test holds the two equal.
func firstMatch(rules []rule.Rule, h rule.Header) (id int32, act rule.Action) {
	for i := range rules {
		if rules[i].Matches(h) {
			return int32(rules[i].ID), rules[i].Action
		}
	}
	return 0, 0
}

// computeOracle fills the expected-verdict tables for both rulesets, one
// goroutine each. It is not timed.
func (in *inputs) computeOracle() {
	in.expA, in.expB = make([]int32, len(in.pool)), make([]int32, len(in.pool))
	if in.spec.state > 0 {
		in.altA, in.altB = make([]int32, len(in.pool)), make([]int32, len(in.pool))
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		in.estA = in.oracleFor(in.rsA.Rules(), in.expA, in.altA)
	}()
	go func() {
		defer wg.Done()
		in.oracleFor(in.rsB.Rules(), in.expB, in.altB)
	}()
	wg.Wait()
}

// oracleFor computes exp[i], the stateless verdict of pool[i], and for a
// stateful workload alt[i]: the establishing verdict of the opposite
// direction, which a state hit on pool[i] returns in its place. It
// returns which headers' own verdicts install flow state.
func (in *inputs) oracleFor(rules []rule.Rule, exp, alt []int32) (establishes []bool) {
	establishes = make([]bool, len(in.pool))
	for i, h := range in.pool {
		var act rule.Action
		exp[i], act = firstMatch(rules, h)
		establishes[i] = act == rule.ActionEstablish
	}
	if alt == nil {
		return establishes
	}
	index := make(map[rule.Header]int, len(in.pool))
	for i, h := range in.pool {
		index[h] = i
	}
	for i, h := range in.pool {
		if j, ok := index[reverseHeader(h)]; ok && establishes[j] {
			alt[i] = exp[j]
		}
	}
	return establishes
}

func reverseHeader(h rule.Header) rule.Header {
	return rule.Header{SrcIP: h.DstIP, DstIP: h.SrcIP, SrcPort: h.DstPort, DstPort: h.SrcPort, Proto: h.Proto}
}

// checker compares verdicts of the burst at sequence position pos with
// the oracle. ids[j] is the rule ID returned for order[pos+j], 0 for no
// match. Every method returns the number of wrong verdicts.
type checker struct {
	in *inputs

	// The update phase publishes its progress here so the lookup side
	// can tell which schedule-inserted rules may be live: inserts
	// [deleted, issued) of in.inserts, counted before Insert is called
	// and after Delete returns.
	issued, deleted atomic.Int64
}

func ok(id, exp int32, alt []int32, i int32) bool {
	return id == exp || (alt != nil && alt[i] != 0 && id == alt[i])
}

// steady checks against ruleset A with no update in flight.
func (c *checker) steady(pos int, ids []int32) (wrong int) {
	in := c.in
	for j, id := range ids {
		if i := in.order[pos+j]; !ok(id, in.expA[i], in.altA, i) {
			wrong++
		}
	}
	return wrong
}

// updating checks while the update phase runs: the base set's verdicts
// hold, and a header the oracle says misses may also return a live
// schedule-inserted rule, whose IDs and priorities sit above the base
// set. lo is the deleted count read before the burst.
func (c *checker) updating(pos int, ids []int32, lo int64) (wrong int) {
	in := c.in
	hi := c.issued.Load()
	for j, id := range ids {
		i := in.order[pos+j]
		if ok(id, in.expA[i], in.altA, i) {
			continue
		}
		k := int64(id) - int64(in.inserts[0].ID)
		if in.expA[i] == 0 && k >= 0 && c.liveInsert(k, lo, hi) && in.inserts[k].Matches(in.pool[i]) {
			continue
		}
		wrong++
	}
	return wrong
}

// liveInsert reports whether insert k of the pool may be installed when
// inserts [lo, hi) of the endless round-robin over the pool are.
func (c *checker) liveInsert(k, lo, hi int64) bool {
	n := int64(len(c.in.inserts))
	if k >= n {
		return false
	}
	if hi-lo >= n {
		return true
	}
	a, b := lo%n, hi%n
	if a <= b {
		return k >= a && k < b
	}
	return k >= a || k < b
}

// swapping checks while rulesets A and B alternate. Every verdict must
// be the oracle's under one of the two rulesets. A burst is classified
// under one snapshot, so on a bare engine it must also match A's table
// in full or B's in full; a mix fails the whole burst. Behind a flow
// cache or state table a mixed burst is reported instead of failed:
// those layers are invalidated only after Replace returns, so while the
// new ruleset is already published their hits still carry the old
// verdicts. That is a finding about the wrappers, not a wrong verdict.
func (c *checker) swapping(pos int, ids []int32) (wrong int, mixed bool) {
	in := c.in
	allA, allB := true, true
	for j, id := range ids {
		i := in.order[pos+j]
		a, b := ok(id, in.expA[i], in.altA, i), ok(id, in.expB[i], in.altB, i)
		if !a && !b {
			wrong++
		}
		allA, allB = allA && a, allB && b
	}
	mixed = wrong == 0 && !allA && !allB
	if mixed && in.spec.cache == 0 && in.spec.state == 0 {
		return len(ids), true
	}
	return wrong, mixed
}

// flowKey is the direction-normalized 5-tuple the conntrack oracle keys
// its flows by.
type flowKey struct {
	loIP, hiIP     uint32
	loPort, hiPort uint16
	proto          uint8
}

func flowKeyOf(h rule.Header) flowKey {
	if h.SrcIP < h.DstIP || (h.SrcIP == h.DstIP && h.SrcPort <= h.DstPort) {
		return flowKey{h.SrcIP, h.DstIP, h.SrcPort, h.DstPort, h.Proto}
	}
	return flowKey{h.DstIP, h.SrcIP, h.DstPort, h.SrcPort, h.Proto}
}

// conntrackOracle is the strict, order-aware check of a stateful
// workload: a map from flow to the verdicts that may have been
// installed for it so far, with no capacity and no expiry. Unlike the
// alt tables it knows time: a state verdict before any packet of the
// flow has established is wrong. It is fed one burst at a time from a
// single goroutine on a fresh engine.
type conntrackOracle struct {
	in        *inputs
	installed map[flowKey][2]int32
	byState   int // verdicts only established state explains
}

func newConntrackOracle(in *inputs) *conntrackOracle {
	return &conntrackOracle{in: in, installed: make(map[flowKey][2]int32)}
}

// check verifies one burst. The engine probes the whole burst against
// the state table as it stood at burst start, so installs of this burst
// are booked only after every verdict is judged. An installed entry may
// have been evicted since, so the stateless verdict stays acceptable.
func (o *conntrackOracle) check(pos int, ids []int32) (wrong int) {
	in := o.in
	for j, id := range ids {
		i := in.order[pos+j]
		if id == in.expA[i] {
			continue
		}
		if e := o.installed[flowKeyOf(in.pool[i])]; id != 0 && (id == e[0] || id == e[1]) {
			o.byState++
			continue
		}
		wrong++
	}
	for j := range ids {
		i := in.order[pos+j]
		if id := in.expA[i]; in.estA[i] {
			k := flowKeyOf(in.pool[i])
			if e := o.installed[k]; e[0] != id && e[1] != id {
				if e[0] == 0 {
					e[0] = id
				} else {
					e[1] = id
				}
				o.installed[k] = e
			}
		}
	}
	return wrong
}
