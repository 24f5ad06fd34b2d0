//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	repro "repro"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/flowcache"
	"repro/internal/fwstate"
	"repro/internal/hwsim"
	"repro/internal/lpm"
	"repro/internal/packet"
	"repro/internal/rcu"
	"repro/internal/rule"
)

// span is one layer call batch of the traced replay: a span never wraps
// a single packet, because reading the clock costs as much as a
// flow-cache probe. Count is the work done inside it (frames, probes,
// headers) and Hits the useful outcomes, counted at the same boundary.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 for a burst
	Burst   int    `json:"burst"`
	Count   int    `json:"count"`
	Hits    int    `json:"hits,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) begin(name string, parent, burst int) int {
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Burst: burst, StartNs: int64(time.Since(tr.t0))})
	return len(tr.spans) - 1
}

func (tr *tracer) end(i, count, hits int) {
	s := &tr.spans[i]
	s.EndNs, s.Count, s.Hits = int64(time.Since(tr.t0)), count, hits
}

// total sums duration, count and hits over every span of one name.
func (tr *tracer) total(name string) (ns int64, count, hits int) {
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Name == name {
			ns += s.EndNs - s.StartNs
			count += s.Count
			hits += s.Hits
		}
	}
	return ns, count, hits
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(tr.spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayLookups is how much of the visiting order the traced replay
// covers.
const replayLookups = 200000

// layerChain is the engine's lookup chain rebuilt from its layers'
// exported entry points, so that each link can be timed from outside:
// frame decode, flow-state probe, flow-cache probe, RCU lease, the bare
// core classifier, then the cache and state fills. It does what
// statefulEngine/cachedEngine.LookupBytesBatch do, and its verdicts are
// checked like the engine's.
type layerChain struct {
	dec   packet.Burst
	state *fwstate.Table   // nil without WithFlowState
	cache *flowcache.Cache // nil without WithFlowCache
	store *rcu.Store[*core.Classifier[lpm.V4]]

	// Per-burst scratch.
	hdrs    []rule.Header
	at      []int // position in the burst of each header still unresolved
	missed  []int
	keys    []fwstate.Key
	hks     []uint64
	cks     []uint64
	coreIn  []core.Header[lpm.V4]
	coreOut []core.Result
	out     []core.Result
	ids     []int32
}

func newLayerChain(in *inputs) (*layerChain, error) {
	cls, _, err := core.NewV4(core.Config{}, in.rsA)
	if err != nil {
		return nil, err
	}
	lc := &layerChain{store: rcu.NewStore(cls, cls), out: make([]core.Result, burstSize), ids: make([]int32, burstSize)}
	if in.spec.state > 0 {
		lc.state = fwstate.New(in.spec.state, stateTTL)
	}
	if in.spec.cache > 0 {
		lc.cache = flowcache.New(in.spec.cache)
	}
	return lc, nil
}

// classify runs one burst through the chain under the parent span and
// returns the rule IDs by burst position plus the frames that failed to
// decode.
func (lc *layerChain) classify(tr *tracer, parent, burst int, frames [][]byte) (ids []int32, undecoded int) {
	for j := range lc.out {
		lc.out[j] = core.Result{}
	}
	sp := tr.begin("packet.DecodeV4", parent, burst)
	hdrs, idx := lc.dec.DecodeV4(frames)
	tr.end(sp, len(frames), len(hdrs))
	lc.hdrs = append(lc.hdrs[:0], hdrs...)
	lc.at = append(lc.at[:0], idx...)

	var stateGen, cacheGen uint64
	if lc.state != nil {
		sp := tr.begin("fwstate.GetHashed", parent, burst)
		probes := len(lc.hdrs)
		lc.keys, lc.hks = lc.keys[:0], lc.hks[:0]
		n := 0
		for j, h := range lc.hdrs {
			k := fwstate.KeyOf(h)
			hk := lc.state.Hash(k)
			res, gen, ok := lc.state.GetHashed(hk, k)
			if ok {
				lc.out[lc.at[j]] = res
				continue
			}
			if n == 0 {
				stateGen = gen
			}
			lc.hdrs[n], lc.at[n] = h, lc.at[j]
			lc.keys, lc.hks = append(lc.keys, k), append(lc.hks, hk)
			n++
		}
		lc.hdrs, lc.at = lc.hdrs[:n], lc.at[:n]
		tr.end(sp, probes, probes-n)
	}
	lc.missed = append(lc.missed[:0], lc.at...) // positions the state table missed, for its fills
	if lc.cache != nil && len(lc.hdrs) > 0 {
		sp := tr.begin("flowcache.GetHashed", parent, burst)
		probes := len(lc.hdrs)
		lc.cks = lc.cks[:0]
		n := 0
		for j, h := range lc.hdrs {
			ck := lc.cache.Hash(h)
			res, gen, ok := lc.cache.GetHashed(ck, h)
			if ok {
				lc.out[lc.at[j]] = res
				continue
			}
			if n == 0 {
				cacheGen = gen
			}
			lc.hdrs[n], lc.at[n] = h, lc.at[j]
			lc.cks = append(lc.cks, ck)
			n++
		}
		lc.hdrs, lc.at = lc.hdrs[:n], lc.at[:n]
		tr.end(sp, probes, probes-n)
	}
	if len(lc.hdrs) > 0 {
		sp := tr.begin("rcu.Acquire", parent, burst)
		lease := lc.store.Acquire()
		tr.end(sp, 1, 0)
		lc.coreIn, lc.coreOut = lc.coreIn[:0], lc.coreOut[:0]
		for _, h := range lc.hdrs {
			lc.coreIn = append(lc.coreIn, core.V4Header(h))
			lc.coreOut = append(lc.coreOut, core.Result{})
		}
		sp = tr.begin("core.LookupBatchInto", parent, burst)
		lease.Value().LookupBatchInto(lc.coreIn, lc.coreOut)
		tr.end(sp, len(lc.coreIn), 0)
		sp = tr.begin("rcu.Release", parent, burst)
		lease.Release()
		tr.end(sp, 1, 0)
		for j, res := range lc.coreOut {
			lc.out[lc.at[j]] = res
		}
		if lc.cache != nil {
			sp := tr.begin("flowcache.PutHashed", parent, burst)
			for j, res := range lc.coreOut {
				lc.cache.PutHashed(lc.cks[j], cacheGen, lc.hdrs[j], res)
			}
			tr.end(sp, len(lc.coreOut), 0)
		}
	}
	if lc.state != nil && len(lc.missed) > 0 {
		sp := tr.begin("fwstate.PutHashed", parent, burst)
		puts := 0
		for j, at := range lc.missed {
			if res := lc.out[at]; res.Found && res.Action == rule.ActionEstablish {
				lc.state.PutHashed(lc.hks[j], stateGen, lc.keys[j], res)
				puts++
			}
		}
		tr.end(sp, puts, 0)
	}
	for j, res := range lc.out {
		lc.ids[j] = 0
		if res.Found {
			lc.ids[j] = int32(res.RuleID)
		}
	}
	return lc.ids, len(frames) - len(hdrs)
}

// tracedReplay replays the head of the visiting order burst by burst,
// first through the engine as a whole and then through the layer chain,
// with one span around every call. It returns the recorder.
func tracedReplay(eng repro.Engine, in *inputs, chk *checker, t *tally) (*tracer, error) {
	chain, err := newLayerChain(in)
	if err != nil {
		return nil, err
	}
	bursts := min(replayLookups, len(in.slab)) / burstSize
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, bursts*12)}
	// Two passes over the same bursts, so that neither evicts the other's
	// tables from the CPU caches between calls; the burst number ties a
	// layer span to the engine span of the same input.
	loop := newLookupLoop(eng, in, t, 0)
	quiesce()
	for b := range bursts {
		sp := tr.begin("engine.LookupBytesBatch", -1, b)
		loop.burst(chk.steady)
		tr.end(sp, burstSize, 0)
	}
	quiesce()
	for b := range bursts {
		pos := b * burstSize
		root := tr.begin("layers", -1, b)
		ids, undecoded := chain.classify(tr, root, b, in.slab[pos:pos+burstSize])
		tr.end(root, burstSize, 0)
		t.add(burstSize, undecoded+chk.steady(pos, ids))
	}
	return tr, nil
}

// get fetches one URL of the daemon's HTTP plane and returns how long the
// whole exchange took.
func get(url string) (time.Duration, error) {
	t0 := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return time.Since(t0), err
}

// catchAll matches every header; the floor table holds only this rule.
var catchAll = rule.Rule{ID: 1, Priority: 1, Action: rule.ActionPermit,
	SrcPort: rule.FullPortRange(), DstPort: rule.FullPortRange(), Proto: rule.AnyProto()}

// tracedDaemon measures the serving layers against the real daemon and
// the benchmark's own echo server. engineBatchNs is the library's
// LookupBatchInto time per 64 headers on the same table.
func tracedDaemon(in *inputs, cfg runConfig, sv *served, chk *checker, t *tally, engineBatchNs float64, r results) error {
	w := cfg.window()
	seq := in.seq
	loop := newCtlLoop(sv.c, seq, chk, t, 0)
	r.set("ctl.bulk_load_ms", msec(sv.bulkLoad))

	// Untraced reference: the closed-loop MLOOKUP rate, as in the
	// end-to-end run but shorter.
	if _, _, err := closedLoop(loop, burstSize, sv.c.MLookup, 1, w); err != nil {
		return fmt.Errorf("MLOOKUP warm-up: %w", err)
	}
	klps, calls, err := closedLoop(loop, burstSize, sv.c.MLookup, 3, w/2)
	if err != nil {
		return fmt.Errorf("MLOOKUP loop: %w", err)
	}
	nsPerLookup := 1e6 / median(klps)
	r.set("ctl.mlookup64_call_p50_us", usec(calls.percentile(0.5)))

	p16, _, err := closedLoop(loop, 16, sv.c.PipelineLookups, 3, w/4)
	if err != nil {
		return fmt.Errorf("pipelined LOOKUP loop: %w", err)
	}
	r.set("ctl.pipeline16_klps", median(p16))
	_, rtt, err := closedLoop(loop, 1, loop.single, 3, w/4)
	if err != nil {
		return fmt.Errorf("LOOKUP loop: %w", err)
	}
	r.set("ctl.lookup_rtt_p99_us", usec(rtt.tail(0.99)))

	// Two closed-loop LOOKUP connections: the only phase with more than one.
	c2, err := ctl.Dial(sv.d.addr)
	if err != nil {
		return err
	}
	defer c2.Close()
	if err := c2.TableUse(benchTable); err != nil {
		return err
	}
	loops := []*ctlLoop{loop, newCtlLoop(c2, seq, chk, t, len(seq)/2)}
	rate2 := make([][]float64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g, l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rate2[g], _, errs[g] = closedLoop(l, 1, l.single, 3, w/4)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("two-connection LOOKUP loop: %w", err)
		}
	}
	r.set("ctl.lookup_2conn_klps", median(rate2[0])+median(rate2[1]))

	lines := in.lookupLines()
	low, err := openLoop(sv.d.addr, in, lines, chk, t, openRateLow, 3*w/2)
	if err != nil {
		return err
	}
	r.set("ctl.p99_us_at_5k", usec(low.latency.tail(0.99)))
	high, err := openLoop(sv.d.addr, in, lines, chk, t, openRateHigh, 3*w/2)
	if err != nil {
		return err
	}
	r.set("ctl.p50_us_at_40k", median(high.windowP50s(3)))
	r.set("ctl.p99_us_at_40k", usec(high.latency.tail(0.99)))
	r.set("ctl.backlog_max_at_40k", float64(high.backlogMax))
	r.set("ctl.gen_late_p99_us", usec(high.late.tail(0.99)))

	// Control-plane round trips: insert and delete schedule rules one by
	// one, poll STATS, scrape the HTTP plane, then swap in ruleset B.
	var insert, stats samples
	for _, rl := range in.inserts[:min(len(in.inserts), 200)] {
		d, err := timed(func() error { _, err := sv.c.Insert(rl); return err })
		if err != nil {
			t.add(1, 1)
			return fmt.Errorf("ctl insert: %w", err)
		}
		insert = append(insert, int64(d))
		if _, err := sv.c.Delete(rl.ID); err != nil {
			t.add(2, 1)
			return fmt.Errorf("ctl delete: %w", err)
		}
		t.add(2, 0)
		d, err = timed(func() error { _, err := sv.c.TableStats(); return err })
		if err != nil {
			return fmt.Errorf("ctl stats: %w", err)
		}
		stats = append(stats, int64(d))
	}
	r.set("ctl.insert_rtt_p50_us", usec(insert.percentile(0.5)))
	r.set("ctl.stats_rtt_us", usec(stats.percentile(0.5)))
	scrape, err := get("http://" + sv.d.httpAddr + "/metrics")
	if err != nil {
		return err
	}
	r.set("httpapi.metrics_scrape_ms", msec(scrape))
	statsGet, err := get("http://" + sv.d.httpAddr + "/v1/tables/" + benchTable + "/stats")
	if err != nil {
		return err
	}
	r.set("httpapi.stats_ms", msec(statsGet))
	swap, err := timed(func() error { _, err := sv.c.Swap(in.rsB.Rules()); return err })
	if err != nil {
		t.add(1, 1)
		return fmt.Errorf("ctl swap: %w", err)
	}
	t.add(1, 0)
	r.set("ctl.swap_ms", msec(swap))
	st, err := sv.c.TableStats()
	if err != nil {
		return err
	}
	r.set("ctl.errors", float64(st.Ops.Errors))
	t.add(0, int(st.Ops.Errors))

	// The floor under every ctl round trip: the same request lines
	// against a server that only echoes them.
	echo, err := startEcho()
	if err != nil {
		return err
	}
	defer echo.stop()
	lookupEcho, err := echoRTT(echo.l.Addr().String(), lines, w/4)
	if err != nil {
		return err
	}
	r.set("net.echo_rtt_p50_us", usec(lookupEcho.percentile(0.5)))
	mlookupLine := []byte("MLOOKUP")
	for _, i := range in.order[:burstSize] {
		mlookupLine = append(mlookupLine, lines[i][len("LOOKUP"):len(lines[i])-1]...)
	}
	mlookupLine = append(mlookupLine, '\n')
	mlookupEcho, err := echoRTT(echo.l.Addr().String(), [][]byte{mlookupLine}, w/4)
	if err != nil {
		return err
	}
	echoNs := float64(mlookupEcho.percentile(0.5)) / burstSize

	// The serving layers' own cost (ctl parse and format, table resolve,
	// metrics), measured where the engine costs next to nothing: a table
	// whose one rule matches everything, so every reply still carries a
	// verdict. What is left of its MLOOKUP round trip after the echo floor
	// and the engine's own time is ctl's.
	const floorTable = "floor"
	if err := sv.c.TableCreate(floorTable, "decomposition", 1); err != nil {
		return err
	}
	if err := sv.c.TableUse(floorTable); err != nil {
		return err
	}
	if _, err := sv.c.Insert(catchAll); err != nil {
		return err
	}
	floorSet, err := rule.NewSet([]rule.Rule{catchAll})
	if err != nil {
		return err
	}
	floorEng, err := repro.New(repro.WithRules(floorSet))
	if err != nil {
		return err
	}
	out := make([]repro.Result, burstSize)
	cur := cursor{n: len(seq)}
	floorEngNs := perOp(w/8, func() int {
		lo, hi := cur.next(burstSize)
		floorEng.LookupBatchInto(seq[lo:hi], out)
		return hi - lo
	})
	var floorCalls samples
	pos := 0
	for start := time.Now(); time.Since(start) < w/2; pos = (pos + burstSize) % (len(seq) - burstSize) {
		t0 := time.Now()
		res, err := sv.c.MLookup(seq[pos : pos+burstSize])
		if err != nil {
			t.add(burstSize, burstSize)
			return fmt.Errorf("floor MLOOKUP: %w", err)
		}
		floorCalls = append(floorCalls, int64(time.Since(t0)))
		wrong := 0
		for _, v := range res {
			if v.RuleID != catchAll.ID {
				wrong++
			}
		}
		t.add(burstSize, wrong)
	}
	ctlSelf := float64(floorCalls.percentile(0.5))/burstSize - echoNs - floorEngNs
	r.set("ctl.self_ns_per_lookup", ctlSelf)
	r.set("trace.daemon_sum_ratio", (engineBatchNs/burstSize+echoNs+ctlSelf)/nsPerLookup)
	return nil
}

// runTraced is the layer-by-layer run of one workload. It measures every
// per-layer metric, writes the span file, and lists as UNEXPLAINED every
// sum of layers that lands outside 0.8–1.25 of the measured whole.
func runTraced(in *inputs, cfg runConfig, bin string, t *tally) (r results, notes []string, err error) {
	r = results{}
	chk := &checker{in: in}
	w := cfg.window()
	micro := w / 8

	eng, err := repro.New(in.spec.engineOptions(in.rsA)...)
	if err != nil {
		return nil, nil, fmt.Errorf("engine build: %w", err)
	}
	sv, err := serve(cfg.procs, bin, in)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if cerr := sv.close(); err == nil {
			err = cerr
		}
	}()

	// Library side. The untraced reference first, as in the end-to-end
	// run but shorter; then the same loop with a span around every call.
	verifyPass(eng, in, chk, t)
	_, cycles, _, err := modelOf(eng)
	if err != nil {
		return nil, nil, err
	}
	untracedNs := 1e3 / lookupWindow(eng, in, chk, t, 1, 3*w/2)
	tr, err := tracedReplay(eng, in, chk, t)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace_"+in.spec.name+".json")); err != nil {
		return nil, nil, err
	}
	engNs, engCount, _ := tr.total("engine.LookupBytesBatch")
	tracedNs := float64(engNs) / float64(engCount)
	r.set("engine.bytes64_ns", tracedNs*burstSize)
	r.set("trace.overhead_pct", 100*(tracedNs-untracedNs)/untracedNs)
	decNs, frames, decoded := tr.total("packet.DecodeV4")
	r.set("packet.decode_ns", float64(decNs)/float64(frames))
	r.set("packet.decode_fail", float64(frames-decoded))

	// Hit rates and table counters as the engine itself counted them.
	var stateHit, cacheHit, installShare float64
	for _, name := range []string{"fwstate.hit_rate", "fwstate.installs", "fwstate.evictions", "fwstate.invalidations",
		"flowcache.hit_rate", "flowcache.evictions", "flowcache.invalidations"} {
		r.set(name, 0)
	}
	if s, ok := eng.(interface{ StateStats() repro.FlowStateStats }); ok {
		st := s.StateStats()
		stateHit, installShare = st.HitRate(), float64(st.Installs)/float64(st.Hits+st.Misses)
		r.set("fwstate.hit_rate", stateHit)
		r.set("fwstate.installs", float64(st.Installs))
		r.set("fwstate.evictions", float64(st.Evictions))
		r.set("fwstate.invalidations", float64(st.Invalidations))
	}
	if c, ok := eng.(interface{ CacheStats() repro.FlowCacheStats }); ok {
		st := c.CacheStats()
		cacheHit = st.HitRate()
		r.set("flowcache.hit_rate", cacheHit)
		r.set("flowcache.evictions", float64(st.Evictions))
		r.set("flowcache.invalidations", float64(st.Invalidations))
	}

	// The engine shell through its other entry points.
	seq := in.seq
	out := make([]repro.Result, burstSize)
	cur := cursor{n: len(seq)}
	r.set("engine.lookup_ns", perOp(micro, func() int {
		lo, hi := cur.next(burstSize)
		for _, h := range seq[lo:hi] {
			out[0], _ = eng.Lookup(h)
		}
		return hi - lo
	}))
	engineBatchNs := burstSize * perOp(micro, func() int {
		lo, hi := cur.next(burstSize)
		eng.LookupBatchInto(seq[lo:hi], out)
		return hi - lo
	})
	r.set("engine.batch64_ns", engineBatchNs)
	curF := cursor{n: len(in.slab)}
	r.set("engine.allocs_per_burst", allocsPerCall(1000, func() {
		lo, hi := curF.next(burstSize)
		eng.LookupBytesBatch(in.slab[lo:hi], out)
	}))
	_, updLat, err := updateWindow(eng, in, chk, t, w)
	if err != nil {
		return nil, nil, err
	}
	r.set("engine.update_p50_us", usec(updLat.percentile(0.5)))
	snapshot, _ := timed(func() error { eng.Snapshot(); return nil })
	r.set("engine.snapshot_ms", msec(snapshot))

	// The layers one by one.
	configuredNs, err := fieldEngines(in, micro, r)
	if err != nil {
		return nil, nil, err
	}
	if err := coreLayer(in, micro, configuredNs, r); err != nil {
		return nil, nil, err
	}
	probedTables(in, micro, r)
	if err := smallLayers(in, cfg, micro, r); err != nil {
		return nil, nil, err
	}
	if err := otherCompositions(in, micro, r); err != nil {
		return nil, nil, err
	}
	replace, err := timed(func() error { _, err := eng.Replace(in.rsB.Rules()); return err })
	if err != nil {
		return nil, nil, fmt.Errorf("engine replace: %w", err)
	}
	r.set("engine.replace_ms", msec(replace))

	// The model next to the wall clock.
	modelNs := cycles / hwsim.DefaultClockHz * 1e9
	r.set("hwsim.model_ns_per_pkt", modelNs)
	r.set("hwsim.model_vs_wall_ratio", r["core.lookup_ns"].Value/modelNs)

	// Do the layers add up to the lookup? Calls per lookup times
	// nanoseconds per call, with the hit rates the engine counted.
	v := func(name string) float64 { return r[name].Value }
	inner := v("rcu.acquire_release_ns")/burstSize + v("core.burst64_ns")/burstSize
	sum := v("packet.decode_ns")
	if in.spec.cache > 0 {
		cacheProbe := cacheHit*v("flowcache.get_hit_ns") + (1-cacheHit)*v("flowcache.get_miss_ns")
		inner = cacheProbe + (1-cacheHit)*(inner+v("flowcache.put_ns"))
	}
	if in.spec.state > 0 {
		stateProbe := stateHit*v("fwstate.get_hit_ns") + (1-stateHit)*v("fwstate.get_miss_ns")
		inner = stateProbe + (1-stateHit)*inner + installShare*v("fwstate.put_ns")
	}
	sum += inner
	r.set("trace.lib_sum_ratio", sum/untracedNs)
	// What the sum leaves unexplained is booked to the wrapper that
	// compacts misses and scatters verdicts around its table.
	r.set("engine.cache_wrap_self_ns", 0)
	r.set("engine.state_wrap_self_ns", 0)
	switch {
	case in.spec.state > 0:
		r.set("engine.state_wrap_self_ns", untracedNs-sum)
	case in.spec.cache > 0:
		r.set("engine.cache_wrap_self_ns", untracedNs-sum)
	}

	if err := tracedDaemon(in, cfg, sv, chk, t, engineBatchNs, r); err != nil {
		return nil, nil, err
	}
	for _, name := range []string{"trace.lib_sum_ratio", "trace.daemon_sum_ratio"} {
		if ratio := v(name); ratio < 0.8 || ratio > 1.25 {
			notes = append(notes, fmt.Sprintf("UNEXPLAINED: %s = %.2f, the layers do not add up to the whole", name, ratio))
		}
	}
	return r, notes, nil
}
