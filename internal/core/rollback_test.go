package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hwsim"
	"repro/internal/lpm"
	"repro/internal/rule"
)

// TestInsertRollbackOnEngineFull fills a tiny register bank until the
// port engine rejects a rule, then verifies the failed insert left no
// residue: earlier rules still match, the failed rule does not, spec
// refcounts and labels are consistent, and capacity freed by deletes can
// be reused.
func TestInsertRollbackOnEngineFull(t *testing.T) {
	c, err := New[lpm.V4](Config{Range: RangeRegisterBank, BankCapacity: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int, dport uint16) Tuple[lpm.V4] {
		return V4Tuple(rule.Rule{
			ID: id, Priority: id,
			SrcIP:   rule.Prefix{Addr: uint32(id) << 24, Len: 8},
			SrcPort: rule.FullPortRange(), // occupies one bank slot (shared)
			DstPort: rule.ExactPort(dport),
			Proto:   rule.ExactProto(rule.ProtoTCP),
			Action:  rule.ActionPermit,
		})
	}
	// Bank capacity 4: the shared full source range takes one slot in the
	// source bank; distinct destination ports fill the destination bank.
	inserted := 0
	var failedID int
	for i := 1; i <= 10; i++ {
		_, err := c.Insert(mk(i, uint16(1000+i)))
		if err != nil {
			failedID = i
			break
		}
		inserted++
	}
	if failedID == 0 {
		t.Fatal("expected the destination port bank to fill")
	}
	if c.Len() != inserted {
		t.Fatalf("Len = %d, want %d", c.Len(), inserted)
	}

	// Earlier rules still classify correctly.
	for i := 1; i <= inserted; i++ {
		h := Header[lpm.V4]{Src: lpm.V4(uint32(i) << 24), DstPort: uint16(1000 + i), Proto: rule.ProtoTCP}
		res, _ := c.Lookup(h)
		if !res.Found || res.RuleID != i {
			t.Fatalf("rule %d lost after rollback: %+v", i, res)
		}
	}
	// The failed rule must not match anything.
	h := Header[lpm.V4]{Src: lpm.V4(uint32(failedID) << 24), DstPort: uint16(1000 + failedID), Proto: rule.ProtoTCP}
	if res, _ := c.Lookup(h); res.Found {
		t.Fatalf("failed insert left residue: %+v", res)
	}

	// The failed rule's source prefix must not have leaked a label: the
	// label count equals the number of live source prefixes.
	if got := c.Stats().Labels[fieldSrcIP]; got != inserted {
		t.Fatalf("source labels = %d, want %d (no leak from rollback)", got, inserted)
	}

	// Deleting a rule frees bank capacity; the failed rule now fits.
	if _, err := c.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(mk(failedID, uint16(1000+failedID))); err != nil {
		t.Fatalf("insert after freeing capacity: %v", err)
	}
	if res, _ := c.Lookup(h); !res.Found || res.RuleID != failedID {
		t.Fatalf("retried rule does not match: %+v", res)
	}
}

// TestInsertRollbackSharedSpecsSurvive checks that a failed insert does
// not tear down specs shared with live rules.
func TestInsertRollbackSharedSpecsSurvive(t *testing.T) {
	c, err := New[lpm.V4](Config{Range: RangeRegisterBank, BankCapacity: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	shared := rule.Prefix{Addr: 0x0a000000, Len: 8}
	for i, port := range []uint16{80, 8080} {
		ok := V4Tuple(rule.Rule{
			ID: i + 1, Priority: i + 1, SrcIP: shared,
			SrcPort: rule.FullPortRange(), DstPort: rule.ExactPort(port),
			Proto: rule.ExactProto(rule.ProtoTCP), Action: rule.ActionPermit,
		})
		if _, err := c.Insert(ok); err != nil {
			t.Fatal(err)
		}
	}
	// This rule shares the source prefix and source range but needs a
	// third destination-bank slot (capacity 2: ports 80 and 8080), so the
	// destination port engine rejects it.
	bad := V4Tuple(rule.Rule{
		ID: 3, Priority: 3, SrcIP: shared,
		SrcPort: rule.FullPortRange(), DstPort: rule.ExactPort(443),
		Proto: rule.ExactProto(rule.ProtoTCP), Action: rule.ActionPermit,
	})
	if _, err := c.Insert(bad); err == nil {
		t.Fatal("expected bank-full failure")
	}
	// Rule 1 must still work: the shared specs survived the rollback.
	res, _ := c.Lookup(Header[lpm.V4]{Src: 0x0a000001, DstPort: 80, Proto: rule.ProtoTCP})
	if !res.Found || res.RuleID != 1 {
		t.Fatalf("shared spec torn down by rollback: %+v", res)
	}
	if got := c.Stats().Labels[fieldSrcIP]; got != 1 {
		t.Fatalf("source labels = %d, want 1", got)
	}
}

// TestChurnWithFailuresStaysConsistent mixes failing inserts (bank
// overflow) into churn and verifies the classifier tracks the oracle of
// successful operations only.
func TestChurnWithFailuresStaysConsistent(t *testing.T) {
	c, err := New[lpm.V4](Config{Range: RangeRegisterBank, BankCapacity: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(31))
	live := make(map[int]rule.Rule)
	for op := 0; op < 1500; op++ {
		if len(live) > 0 && rnd.Intn(3) == 0 {
			for id := range live {
				if _, err := c.Delete(id); err != nil {
					t.Fatalf("delete: %v", err)
				}
				delete(live, id)
				break
			}
			continue
		}
		r := rule.Rule{
			ID: op + 1, Priority: op + 1,
			SrcIP:   rule.Prefix{Addr: uint32(rnd.Intn(16)) << 24, Len: 8},
			SrcPort: rule.FullPortRange(),
			DstPort: rule.ExactPort(uint16(rnd.Intn(30))), // up to 30 distinct: overflows the 8-slot bank
			Proto:   rule.ExactProto(rule.ProtoTCP),
			Action:  rule.ActionPermit,
		}
		if _, err := c.Insert(V4Tuple(r)); err == nil {
			live[r.ID] = r
		}
		if op%11 != 0 {
			continue
		}
		// Differential probe.
		h := rule.Header{
			SrcIP:   uint32(rnd.Intn(16)) << 24,
			DstPort: uint16(rnd.Intn(30)),
			Proto:   rule.ProtoTCP,
		}
		got, _ := c.Lookup(V4Header(h))
		bestPrio, bestID, found := int(^uint(0)>>1), 0, false
		for _, r := range live {
			if r.Matches(h) && r.Priority < bestPrio {
				bestPrio, bestID, found = r.Priority, r.ID, true
			}
		}
		if got.Found != found || (found && got.RuleID != bestID) {
			t.Fatalf("op %d: (%d,%v) vs oracle (%d,%v)", op, got.RuleID, got.Found, bestID, found)
		}
	}
}

// TestReplaceFailedBuildPublishesNothing drives Replace into a build that
// fails part-way — a replacement needing more destination-port slots than
// the register bank has, and one repeating a rule ID — on the bare
// classifier and on the concurrent pair. The installed ruleset must come
// through byte-identical: Tuples, Len, Memory and every lookup with its
// cost. On the pair it must also be the same two instances as before, i.e.
// nothing was rebuilt to get back there.
func TestReplaceFailedBuildPublishesNothing(t *testing.T) {
	cfg := Config{Range: RangeRegisterBank, BankCapacity: 4}
	mk := func(id int, dport uint16) Tuple[lpm.V4] {
		return V4Tuple(rule.Rule{
			ID: id, Priority: id,
			SrcIP:   rule.Prefix{Addr: uint32(id) << 24, Len: 8},
			SrcPort: rule.FullPortRange(),
			DstPort: rule.ExactPort(dport),
			Proto:   rule.ExactProto(rule.ProtoTCP),
			Action:  rule.ActionPermit,
		})
	}
	old := []Tuple[lpm.V4]{mk(1, 1001), mk(2, 1002), mk(3, 1003)}
	var tooMany []Tuple[lpm.V4] // the bank fills at the fifth distinct port
	for i := 1; i <= 10; i++ {
		tooMany = append(tooMany, mk(20+i, uint16(2000+i)))
	}
	repeated := []Tuple[lpm.V4]{mk(31, 3001), mk(32, 3002), mk(31, 3003)}
	var probes []Header[lpm.V4]
	for id := 1; id <= 40; id++ {
		for _, port := range []uint16{1001, 1002, 1003, 2001, 3001} {
			probes = append(probes, Header[lpm.V4]{Src: lpm.V4(uint32(id) << 24), DstPort: port, Proto: rule.ProtoTCP})
		}
	}

	type domain interface {
		Replace([]Tuple[lpm.V4]) (hwsim.Cost, error)
		Tuples() []Tuple[lpm.V4]
		Len() int
		Memory() hwsim.MemoryMap
		LookupBatch([]Header[lpm.V4]) ([]Result, hwsim.Cost)
	}
	type observed struct {
		tuples  []Tuple[lpm.V4]
		n       int
		mem     hwsim.MemoryMap
		results []Result
		cost    hwsim.Cost
	}
	observe := func(d domain) observed {
		o := observed{tuples: d.Tuples(), n: d.Len(), mem: d.Memory()}
		o.results, o.cost = d.LookupBatch(probes)
		return o
	}
	// instances, when not nil, names the objects serving d; a failed Replace
	// must leave them in place, not rebuild its way back to the same state.
	check := func(t *testing.T, d domain, instances func() any) {
		t.Helper()
		if _, err := d.Replace(old); err != nil {
			t.Fatal(err)
		}
		before := observe(d)
		if before.n != len(old) {
			t.Fatalf("Len = %d, want %d", before.n, len(old))
		}
		var serving any
		if instances != nil {
			serving = instances()
		}
		for name, bad := range map[string][]Tuple[lpm.V4]{"bank full": tooMany, "repeated id": repeated} {
			cost, err := d.Replace(bad)
			if err == nil {
				t.Fatalf("%s: Replace should fail", name)
			}
			if cost != (hwsim.Cost{}) {
				t.Errorf("%s: failed Replace reported cost %+v", name, cost)
			}
			if after := observe(d); !reflect.DeepEqual(before, after) {
				t.Fatalf("%s: failed Replace changed the classifier:\nbefore %+v\nafter  %+v", name, before, after)
			}
			if instances != nil && instances() != serving {
				t.Fatalf("%s: failed Replace installed new instances", name)
			}
		}
		// And it is still fully usable: a replacement that fits goes in.
		if _, err := d.Replace(tooMany[:4]); err != nil {
			t.Fatalf("replace after failures: %v", err)
		}
		if d.Len() != 4 {
			t.Fatalf("Len = %d after a good replace, want 4", d.Len())
		}
	}

	t.Run("classifier", func(t *testing.T) {
		c, err := New[lpm.V4](cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(t, c, nil)
	})
	t.Run("concurrent", func(t *testing.T) {
		c, err := NewConcurrent[lpm.V4](cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(t, c, func() any {
			var pair [2]*Classifier[lpm.V4]
			c.store.Locked(func(active, spare *Classifier[lpm.V4]) { pair = [2]*Classifier[lpm.V4]{active, spare} })
			return pair
		})
	})
}
