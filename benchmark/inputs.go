//go:build linux

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"repro/internal/packet"
	"repro/internal/rule"
	"repro/internal/ruleset"
	"repro/internal/snapfile"
	"repro/internal/workload"
)

// inputs is everything one workload feeds the program under test: two
// rulesets, the distinct headers with their wire frames and ctl request
// lines, the order they are visited in, and the rules the update phase
// inserts. The program sees only rules, frames and ctl lines; the
// expected verdicts stay on this side.
type inputs struct {
	spec *workloadSpec
	seed int64

	rsA, rsB *rule.Set
	inserts  []rule.Rule // schedule insert rules, IDs and priorities above rsA and rsB

	pool   []rule.Header // distinct wire-representable headers
	frames [][]byte      // frames[i] is pool[i] as an Ethernet frame
	order  []int32       // visiting order, indexes into pool; a whole number of bursts
	slab   [][]byte      // slab[p] = frames[order[p]]: bursts are sub-slices
	seq    []rule.Header // seq[p] = pool[order[p]], for the calls that take headers

	digest string // SHA-256 over rules, frames, order and inserts

	// Expected verdicts, filled by computeOracle: the rule ID rule.Set
	// returns for pool[i] under rsA and rsB (0 = no match), and for
	// stateful workloads the ID a state hit may return instead.
	expA, expB []int32
	altA, altB []int32
	estA       []bool // pool[i]'s own verdict under rsA installs flow state
}

// wireHeader zeroes the ports of protocols that carry none on the wire,
// so a frame decodes to exactly the header it was built from.
func wireHeader(h rule.Header) rule.Header {
	if h.Proto != rule.ProtoTCP && h.Proto != rule.ProtoUDP {
		h.SrcPort, h.DstPort = 0, 0
	}
	return h
}

// generateRules builds the workload's ruleset for one seed.
func (s *workloadSpec) generateRules(seed int64) (*rule.Set, error) {
	rs, err := ruleset.Generate(ruleset.Config{Family: s.family, Size: s.rules, Seed: seed})
	if err != nil || s.establishEvery == 0 {
		return rs, err
	}
	rules := append([]rule.Rule(nil), rs.Rules()...)
	for i := range rules {
		if i%s.establishEvery == 0 {
			rules[i].Action = rule.ActionEstablish
		}
	}
	return rule.NewSet(rules)
}

// rulesSeed generates ruleset A, and rulesSeed+1 ruleset B, whatever
// -seed says: -seed draws the traffic (header pool, visiting order,
// connections) and the update schedule over those rules. Another
// ruleset of the same family and size moves the lookup rate by up to a
// tenth, more than the regression bounds allow, so runs on different
// seeds would not be comparable if the rules moved with the seed.
const rulesSeed = 1

// generateInputs makes the workload's inputs from the seed.
func generateInputs(spec *workloadSpec, seed int64) (*inputs, error) {
	in := &inputs{spec: spec, seed: seed}
	var err error
	if in.rsA, err = spec.generateRules(rulesSeed); err != nil {
		return nil, fmt.Errorf("ruleset A: %w", err)
	}
	if in.rsB, err = spec.generateRules(rulesSeed + 1); err != nil {
		return nil, fmt.Errorf("ruleset B: %w", err)
	}
	sched, err := workload.Generate(in.rsA, workload.Config{
		Model: spec.model, Events: spec.events, Duration: time.Second, Seed: seed,
		ZipfSkew: spec.zipf, HeaderPool: spec.pool, UpdateRatio: updateRatio, Family: spec.family,
		Connections: spec.conns, ConnPackets: spec.pkts, FloodRatio: spec.flood,
	})
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	index := make(map[rule.Header]int32, spec.pool)
	for i := range sched.Events {
		ev := &sched.Events[i]
		switch ev.Op {
		case workload.OpLookup:
			h := wireHeader(ev.Header)
			j, ok := index[h]
			if !ok {
				j = int32(len(in.pool))
				index[h] = j
				in.pool = append(in.pool, h)
				in.frames = append(in.frames, packet.BuildEthernet(packet.BuildIPv4(h)))
			}
			in.order = append(in.order, j)
		case workload.OpInsert:
			in.inserts = append(in.inserts, ev.Rule)
		}
	}
	in.order = in.order[:len(in.order)/burstSize*burstSize]
	if len(in.order) == 0 || len(in.inserts) < 2 {
		return nil, fmt.Errorf("schedule of %d events is too short", spec.events)
	}
	in.slab = make([][]byte, len(in.order))
	in.seq = make([]rule.Header, len(in.order))
	for p, i := range in.order {
		in.slab[p], in.seq[p] = in.frames[i], in.pool[i]
	}
	in.digest = in.computeDigest()
	return in, nil
}

// computeDigest hashes what the program under test receives, in the
// form it receives it.
func (in *inputs) computeDigest() string {
	h := sha256.New()
	for _, rs := range []*rule.Set{in.rsA, in.rsB} {
		for _, r := range rs.Rules() {
			io.WriteString(h, snapfile.FormatRule(r))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	for _, r := range in.inserts {
		io.WriteString(h, snapfile.FormatRule(r))
		h.Write([]byte{'\n'})
	}
	h.Write([]byte{0})
	for _, f := range in.frames {
		h.Write(f)
	}
	h.Write([]byte{0})
	binary.Write(h, binary.LittleEndian, in.order)
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedDigests holds the seed-1 input digest of every workload. A
// change to internal/ruleset, internal/workload or internal/packet that
// alters what is measured shows up here instead of as a silent shift in
// the numbers; replace a digest with the one the mismatch error prints
// only when the change of inputs is the point of the PR.
var pinnedDigests = map[string]string{
	"acl10k_uniform":     "8765858ec8328e38b133ef6881413a92d40c5eb3631e507b53cd5cdd979c929a",
	"fw10k_uniform":      "3e5a2050dbdd2eacca03cce7cc148d866352537bb089e70c1afe94ffc7a7ae13",
	"acl10k_zipf_cached": "2eecc6fceab0cfbcc92ccc197c9e8fab6cc6033b35835ecc71fd20dfba11f700",
	"fw5k_conntrack":     "e5ce7bdf4abe2eb203464a8a88c9ff54a45d9f2e45efa16d6970f9e896389c4e",
}

const pinnedSeed = 1

// checkDigest compares a default-seed run against the pinned digest.
func (in *inputs) checkDigest() error {
	want, pinned := pinnedDigests[in.spec.name]
	if in.seed != pinnedSeed || !pinned {
		return nil
	}
	if in.digest != want {
		return fmt.Errorf("workload %s: seed-%d inputs hash to %s, pinned %s: the generators changed what is measured",
			in.spec.name, pinnedSeed, in.digest, want)
	}
	return nil
}
