package main

import (
	"net"
	"strings"
	"testing"

	repro "repro"
	"repro/internal/ctl"
	"repro/internal/workload"
)

// startDaemon serves a fresh engine over TCP, as classifierd would.
func startDaemon(t *testing.T, opts ...repro.Option) string {
	t.Helper()
	eng, err := repro.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := ctl.NewServer(eng)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return l.Addr().String()
}

// replay runs one loadgen invocation and returns its outcomes.
func replay(t *testing.T, args ...string) []outcome {
	t.Helper()
	var b strings.Builder
	ocs, err := run(args, &b)
	if err != nil {
		t.Fatalf("loadgen %v: %v\noutput:\n%s", args, err, b.String())
	}
	return ocs
}

// checkOutcome asserts the acceptance contract every loadgen run must
// meet: lookups issued, non-zero latency quantiles, zero errors.
func checkOutcome(t *testing.T, oc outcome) {
	t.Helper()
	lk := oc.rep.Ops[workload.OpLookup]
	if lk == nil || lk.Count == 0 {
		t.Fatalf("%s: no lookups issued", oc.model)
	}
	p50, p99 := lk.Latency.Quantile(0.50), lk.Latency.Quantile(0.99)
	if p50 <= 0 || p99 <= 0 {
		t.Errorf("%s: zero latency quantiles: p50=%v p99=%v", oc.model, p50, p99)
	}
	if p50 > p99 {
		t.Errorf("%s: p50 %v above p99 %v", oc.model, p50, p99)
	}
	if n := oc.rep.TotalErrors(); n != 0 || oc.rep.FirstError != nil {
		t.Errorf("%s: %d errors, first %v", oc.model, n, oc.rep.FirstError)
	}
	if oc.rep.EventsPerSec() <= 0 || oc.rep.Elapsed <= 0 {
		t.Errorf("%s: bad throughput: %v ev/s over %v", oc.model, oc.rep.EventsPerSec(), oc.rep.Elapsed)
	}
}

// updates counts the non-lookup operations a replay applied.
func updates(rep *workload.Report) int {
	n := 0
	for op, st := range rep.Ops {
		if op != workload.OpLookup {
			n += st.Count
		}
	}
	return n
}

// TestInProcessAllModels is the in-process acceptance path: every
// traffic model replayed against the default engine with updates and
// swaps, all producing non-zero latency quantiles and zero errors.
func TestInProcessAllModels(t *testing.T) {
	ocs := replay(t, "-model", "all", "-events", "3000", "-duration", "250ms",
		"-size", "150", "-workers", "2")
	if len(ocs) != 5 {
		t.Fatalf("%d outcomes, want 5", len(ocs))
	}
	seen := map[workload.Model]bool{}
	for _, oc := range ocs {
		checkOutcome(t, oc)
		seen[oc.model] = true
		if updates(oc.rep) == 0 {
			t.Errorf("%s: no updates issued", oc.model)
		}
		if oc.state != nil {
			t.Errorf("%s: stateless engine reported flow state", oc.model)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("models covered: %v", seen)
	}
}

// TestInProcessComposition exercises a sharded, flow-cached non-default
// backend.
func TestInProcessComposition(t *testing.T) {
	ocs := replay(t, "-model", "zipf", "-events", "2000", "-duration", "150ms",
		"-size", "120", "-backend", "tss", "-shards", "2", "-flowcache", "4096")
	if len(ocs) != 1 {
		t.Fatalf("%d outcomes", len(ocs))
	}
	checkOutcome(t, ocs[0])
}

// TestConntrackScenario is the stateful acceptance path: the conntrack
// model against a flow-state composition whose ruleset establishes
// flows, so the replay must install state and hit on reverse traffic.
func TestConntrackScenario(t *testing.T) {
	var out strings.Builder
	ocs, err := run([]string{"-model", "conntrack", "-events", "4000", "-duration", "250ms",
		"-size", "150", "-fwstate", "65536", "-establish", "0.5", "-flood", "0.1",
		"-update-ratio", "0", "-swaps", "0", "-workers", "2"}, &out)
	if err != nil {
		t.Fatalf("loadgen: %v\noutput:\n%s", err, out.String())
	}
	if len(ocs) != 1 {
		t.Fatalf("%d outcomes", len(ocs))
	}
	oc := ocs[0]
	checkOutcome(t, oc)
	if oc.model != workload.ModelConntrack {
		t.Fatalf("model = %v", oc.model)
	}
	st := oc.state
	if st == nil {
		t.Fatal("stateful replay reported no flow state")
	}
	// Half the rules establish and the model revisits both directions of
	// live connections, so the replay must both install and hit state.
	if st.Installs == 0 {
		t.Fatalf("stateful replay installed no flows: %+v", *st)
	}
	if st.Hits == 0 || st.HitRate() <= 0 || st.HitRate() > 1 {
		t.Fatalf("stateful replay hit rate out of range: %+v", *st)
	}
	if !strings.Contains(out.String(), "flow state:") {
		t.Errorf("flow-state counters not printed:\n%s", out.String())
	}
}

// TestRemoteShift is the remote acceptance path: loadgen -addr against
// a live daemon with the locality-shift model.
func TestRemoteShift(t *testing.T) {
	addr := startDaemon(t)
	ocs := replay(t, "-addr", addr, "-model", "shift", "-events", "2000",
		"-duration", "250ms", "-size", "120", "-workers", "3", "-batch", "16")
	if len(ocs) != 1 {
		t.Fatalf("%d outcomes", len(ocs))
	}
	checkOutcome(t, ocs[0])
	if updates(ocs[0].rep) == 0 {
		t.Fatalf("no updates replayed remotely")
	}
}

func TestFlagErrors(t *testing.T) {
	var b strings.Builder
	for _, args := range [][]string{
		{"-model", "nope"},
		{"-family", "nope"},
		{"-backend", "nope"},
		{"-events", "0"},
		{"-rules", "/nonexistent"},
		{"-addr", "127.0.0.1:1", "-events", "10", "-duration", "10ms"}, // connection refused
		{"-model", "zipf", "-zipf", "0.5", "-events", "10", "-duration", "10ms"},
		{"-fwstate", "1024", "-addr", "127.0.0.1:1"},
		{"-establish", "1.5"},
	} {
		if _, err := run(args, &b); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
