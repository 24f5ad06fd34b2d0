//go:build linux

package main

import (
	"testing"

	repro "repro"
	"repro/internal/rule"
	"repro/internal/ruleset"
	"repro/internal/workload"
)

// smallSpecs are the four workloads cut down to test size: the same
// families, traffic models and compositions over 500 rules.
func smallSpecs() []workloadSpec {
	specs := append([]workloadSpec(nil), workloads...)
	for i := range specs {
		specs[i].rules = 500
		specs[i].events = 16384
		specs[i].pool = min(specs[i].pool, 16384)
		if specs[i].cache > 0 {
			specs[i].cache = 1024
		}
		if specs[i].state > 0 {
			specs[i].state = 1024
			specs[i].conns = 256
		}
	}
	return specs
}

func smallInputs(t *testing.T, spec *workloadSpec, seed int64) *inputs {
	t.Helper()
	in, err := generateInputs(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	in.computeOracle()
	return in
}

func TestFirstMatchIsSetMatch(t *testing.T) {
	for _, fam := range ruleset.Families() {
		rs, err := ruleset.Generate(ruleset.Config{Family: fam, Size: 400, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		hs, err := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Size: 3000, HitRatio: 0.8, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, h := range hs {
			want, found := rs.Match(h)
			got, act := firstMatch(rs.Rules(), h)
			if !found {
				want.ID = 0
			} else {
				hits++
			}
			if int(got) != want.ID || (found && act != want.Action) {
				t.Fatalf("%v: firstMatch(%+v) = rule %d, Set.Match says %d", fam, h, got, want.ID)
			}
		}
		if hits == 0 || hits == len(hs) {
			t.Fatalf("%v: %d of %d headers hit; the comparison needs both outcomes", fam, hits, len(hs))
		}
	}
}

func TestInputsRepeatForASeed(t *testing.T) {
	spec := &smallSpecs()[3]
	a, b := smallInputs(t, spec, 9), smallInputs(t, spec, 9)
	if a.digest != b.digest {
		t.Errorf("the same seed gave digests %s and %s", a.digest, b.digest)
	}
	if c := smallInputs(t, spec, 10); c.digest == a.digest {
		t.Error("another seed gave the same inputs")
	}
	for i, h := range a.pool {
		if h != wireHeader(h) {
			t.Fatalf("pool[%d] = %+v does not survive the wire", i, h)
		}
	}
}

// A verdict check must be able to fail: the engine against the true
// oracle has no failures, the same engine against a deliberately wrong
// expected table has some.
func TestWrongExpectedTableFails(t *testing.T) {
	for _, spec := range smallSpecs() {
		in := smallInputs(t, &spec, 3)
		pass := func() *tally {
			eng, err := repro.New(spec.engineOptions(in.rsA)...)
			if err != nil {
				t.Fatal(err)
			}
			var tl tally
			verifyPass(eng, in, &checker{in: in}, &tl)
			return &tl
		}
		if tl := pass(); tl.failed.Load() != 0 || tl.attempted.Load() != int64(len(in.order)) {
			t.Fatalf("%s: %d of %d verdicts failed against the true oracle", spec.name, tl.failed.Load(), tl.attempted.Load())
		}
		hits := 0
		for i := range in.expA {
			if in.expA[i] != 0 {
				in.expA[i]++ // the next rule ID: a verdict the engine will not give
				hits++
			}
		}
		if hits == 0 {
			t.Fatalf("%s: no header hits any rule", spec.name)
		}
		if tl := pass(); tl.failed.Load() == 0 {
			t.Errorf("%s: no verdict failed against a wrong expected table: the check is vacuous", spec.name)
		}
	}
}

func TestStatefulWorkloadUsesItsState(t *testing.T) {
	spec := smallSpecs()[3]
	in := smallInputs(t, &spec, 3)
	eng, err := repro.New(spec.engineOptions(in.rsA)...)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	byState := verifyPass(eng, in, &checker{in: in}, &tl)
	if tl.failed.Load() != 0 {
		t.Fatalf("%d verdicts failed the conntrack oracle", tl.failed.Load())
	}
	if byState == 0 {
		t.Error("no verdict was explained by established state: the workload never exercises the state table")
	}
}

// handInputs is a three-header pool: a forward header whose verdict
// establishes, its reverse, and a stranger, visited in the given order.
func handInputs(order ...int32) *inputs {
	fwd := rule.Header{SrcIP: 1, DstIP: 2, SrcPort: 1000, DstPort: 80, Proto: rule.ProtoTCP}
	for len(order)%burstSize != 0 {
		order = append(order, 2)
	}
	return &inputs{
		spec:  &workloadSpec{state: 64},
		pool:  []rule.Header{fwd, reverseHeader(fwd), {SrcIP: 9, DstIP: 9, Proto: rule.ProtoUDP}},
		order: order,
		expA:  []int32{7, 0, 3}, expB: []int32{8, 0, 3},
		altA: []int32{0, 7, 0}, altB: []int32{0, 8, 0},
		estA: []bool{true, false, false},
	}
}

func TestConntrackOracleKnowsOrder(t *testing.T) {
	ids := func(first int32) []int32 {
		out := make([]int32, burstSize)
		out[0] = first
		for j := 1; j < burstSize; j++ {
			out[j] = 3
		}
		return out
	}
	// Reverse packet first: nothing is established, so the state verdict 7
	// is wrong and only the stateless miss is right.
	in := handInputs(1)
	if wrong := newConntrackOracle(in).check(0, ids(7)); wrong != 1 {
		t.Errorf("state verdict before establishment: %d wrong, want 1", wrong)
	}
	if wrong := newConntrackOracle(in).check(0, ids(0)); wrong != 0 {
		t.Errorf("stateless verdict before establishment: %d wrong, want 0", wrong)
	}
	// Forward burst, then reverse burst: now 7 is the state hit, and 0
	// stays acceptable because the entry may have been evicted.
	order := make([]int32, burstSize, 2*burstSize) // a burst of the forward header
	in = handInputs(append(order, 1)...)           // then one led by its reverse
	o := newConntrackOracle(in)
	fwdBurst := make([]int32, burstSize)
	for j := range fwdBurst {
		fwdBurst[j] = 7
	}
	if wrong := o.check(0, fwdBurst); wrong != 0 {
		t.Fatalf("forward burst: %d wrong", wrong)
	}
	if wrong := o.check(burstSize, ids(7)); wrong != 0 || o.byState != 1 {
		t.Errorf("state verdict after establishment: %d wrong, %d by state; want 0 and 1", wrong, o.byState)
	}
	if wrong := o.check(burstSize, ids(0)); wrong != 0 {
		t.Errorf("stateless verdict after establishment: %d wrong, want 0", wrong)
	}
	if wrong := o.check(burstSize, ids(5)); wrong != 1 {
		t.Errorf("a verdict of neither kind: %d wrong, want 1", wrong)
	}
}

func TestSwappingRejectsAMix(t *testing.T) {
	in := handInputs(0, 0)
	mixed := make([]int32, burstSize)
	for j := range mixed {
		mixed[j] = 3 // the stranger, same under A and B
	}
	mixed[0], mixed[1] = 7, 8 // the forward header once under A and once under B
	bare := *in
	bare.spec, bare.altA, bare.altB = &workloadSpec{}, nil, nil
	if wrong, mix := (&checker{in: &bare}).swapping(0, mixed); wrong != burstSize || !mix {
		t.Errorf("bare engine, mixed burst: %d wrong, mixed %v; want the whole burst failed", wrong, mix)
	}
	if wrong, mix := (&checker{in: in}).swapping(0, mixed); wrong != 0 || !mix {
		t.Errorf("layered engine, mixed burst: %d wrong, mixed %v; want it reported, not failed", wrong, mix)
	}
	allB := append([]int32(nil), mixed...)
	allB[0] = 8
	if wrong, mix := (&checker{in: &bare}).swapping(0, allB); wrong != 0 || mix {
		t.Errorf("burst wholly under B: %d wrong, mixed %v", wrong, mix)
	}
	allB[5] = 4 // under neither ruleset
	if wrong, _ := (&checker{in: in}).swapping(0, allB); wrong != 1 {
		t.Errorf("a verdict of neither ruleset: %d wrong, want 1", wrong)
	}
}

func TestUpdatingAcceptsOnlyLiveInserts(t *testing.T) {
	in := handInputs(1) // the reverse header: a miss under A
	match := rule.Rule{SrcPort: rule.FullPortRange(), DstPort: rule.FullPortRange(), Proto: rule.AnyProto()}
	other := match
	other.Proto = rule.ExactProto(rule.ProtoICMP)
	in.inserts = []rule.Rule{match, other, match, match}
	for i := range in.inserts {
		in.inserts[i].ID, in.inserts[i].Priority = 100+i, 100+i
	}
	c := &checker{in: in}
	burst := func(first int32) []int32 {
		out := make([]int32, burstSize)
		out[0] = first
		for j := 1; j < burstSize; j++ {
			out[j] = 3
		}
		return out
	}
	c.issued.Store(3) // inserts 0..2 issued, 1 deleted before the burst
	for _, tc := range []struct {
		id    int32
		wrong int
		why   string
	}{
		{0, 0, "the base verdict"},
		{102, 0, "a live insert that matches"},
		{101, 1, "a live insert that does not match the header"},
		{100, 1, "an insert deleted before the burst"},
		{103, 1, "an insert not yet issued"},
		{55, 1, "a rule that does not exist"},
	} {
		if wrong := c.updating(0, burst(tc.id), 1); wrong != tc.wrong {
			t.Errorf("%s (rule %d): %d wrong, want %d", tc.why, tc.id, wrong, tc.wrong)
		}
	}
	// A hit under the base set must stay that hit whatever was inserted.
	in.order[0] = 0
	if wrong := c.updating(0, burst(102), 1); wrong != 1 {
		t.Errorf("an insert shadowing a base hit: %d wrong, want 1", wrong)
	}
}

func TestUpdatePhaseKeepsTheBaseSet(t *testing.T) {
	spec := smallSpecs()[0]
	in := smallInputs(t, &spec, 3)
	eng, err := repro.New(spec.engineOptions(in.rsA)...)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	chk := &checker{in: in}
	if _, lat, err := updateWindow(eng, in, chk, &tl, 60e6); err != nil || len(lat) == 0 {
		t.Fatalf("update phase: %d samples, %v", len(lat), err)
	}
	if tl.failed.Load() != 0 {
		t.Errorf("%d of %d operations failed while updates ran", tl.failed.Load(), tl.attempted.Load())
	}
	if eng.Len() != in.rsA.Len() {
		t.Errorf("engine holds %d rules after the phase, want the %d of ruleset A", eng.Len(), in.rsA.Len())
	}
	if in.spec.model != workload.ModelUniform {
		t.Fatal("the first workload is expected to be the uniform one")
	}
}
