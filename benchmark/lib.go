//go:build linux

package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/internal/rule"
)

// runConfig scales one run. Every timed phase is a fixed number of
// windows; the window is 1/25 of -seconds (1 s at the default 25), which
// makes the timed phases of the end-to-end run add up to about -seconds:
// 20.5 windows plus three ruleset swaps, which take what they take (6 s
// on ACL-10K).
type runConfig struct {
	seconds float64
	par     int    // goroutines of the parallel phases: min(nproc, 4)
	root    string // module root; the daemon is built from it
	outDir  string // benchmark/out
	procs   *procGroup
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds / 25 * float64(time.Second))
}

// Update-phase settings: a fixed op rate, and how many schedule-inserted
// rules are live while it runs.
const (
	updateRate = 2000 // inserts + deletes per second
	updateLag  = 16
)

// tally counts operations attempted and failed across all phases:
// wrong verdicts, error replies, decode failures, refused or timed-out
// requests and mixed-generation bursts all land in failed.
type tally struct {
	attempted, failed atomic.Int64
}

func (t *tally) add(attempted, failed int) {
	t.attempted.Add(int64(attempted))
	t.failed.Add(int64(failed))
}

// measurement is one metric of one run: the median over the phase's
// windows, and the windows themselves as the run's own noise figure.
type measurement struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Windows []float64 `json:"windows,omitempty"`
}

type results map[string]measurement

func (r results) set(name string, v float64) { r[name] = measurement{Value: v} }
func (r results) windows(name string, w []float64) {
	r[name] = measurement{Value: median(w), Windows: w}
}

// lookupLoop replays the visiting order through LookupBytesBatch in
// bursts and checks every verdict. It belongs to one goroutine.
type lookupLoop struct {
	eng repro.Engine
	in  *inputs
	t   *tally
	pos int
	out []repro.Result
	ids []int32
}

func newLookupLoop(eng repro.Engine, in *inputs, t *tally, startBurst int) *lookupLoop {
	return &lookupLoop{
		eng: eng, in: in, t: t,
		pos: startBurst * burstSize % len(in.slab),
		out: make([]repro.Result, burstSize),
		ids: make([]int32, burstSize),
	}
}

// burst classifies the next burst and hands its rule IDs to check, which
// returns the number of wrong verdicts.
func (l *lookupLoop) burst(check func(pos int, ids []int32) int) {
	if l.pos+burstSize > len(l.in.slab) {
		l.pos = 0
	}
	decoded := l.eng.LookupBytesBatch(l.in.slab[l.pos:l.pos+burstSize], l.out)
	for j := range l.out {
		l.ids[j] = 0
		if l.out[j].Found {
			l.ids[j] = int32(l.out[j].RuleID)
		}
	}
	l.t.add(burstSize, burstSize-decoded+check(l.pos, l.ids))
	l.pos += burstSize
}

// quiesce is the noise discipline before every timed phase: whatever the
// previous phase left for the collector is collected now, not inside a
// window.
func quiesce() { runtime.GC() }

// libraryRounds is how often the end-to-end run visits each library
// phase, one window at a time, in rotation. A shared machine slows for
// seconds at a time; three windows a few seconds apart let the median
// drop a slow stretch that three back-to-back windows would sit in.
const libraryRounds = 3

// lookupWindow runs n goroutines of lookupLoop against one engine for
// one window and returns their summed Mlookups/s.
func lookupWindow(eng repro.Engine, in *inputs, chk *checker, t *tally, n int, width time.Duration) float64 {
	quiesce()
	counters := make([]*windowCounter, n)
	var wg sync.WaitGroup
	bursts := len(in.slab) / burstSize
	for g := range counters {
		loop := newLookupLoop(eng, in, t, g*bursts/n)
		counters[g] = newWindowCounter(1, width)
		wg.Add(1)
		go func(w *windowCounter) {
			defer wg.Done()
			for {
				loop.burst(chk.steady)
				if !w.add(burstSize) {
					return
				}
			}
		}(counters[g])
	}
	wg.Wait()
	return rates(1e6, counters...)[0]
}

// verifyPass replays the whole visiting order once, single-threaded, on
// a fresh engine and checks every verdict; stateful workloads are held
// to the order-aware conntrack oracle. It doubles as the warm pass, and
// because it is the only traffic the engine has seen, the modeled
// throughput read after it repeats exactly for a seed.
func verifyPass(eng repro.Engine, in *inputs, chk *checker, t *tally) (byState int) {
	loop := newLookupLoop(eng, in, t, 0)
	check := chk.steady
	var strict *conntrackOracle
	if in.spec.state > 0 {
		strict = newConntrackOracle(in)
		check = strict.check
	}
	for range len(in.slab) / burstSize {
		loop.burst(check)
	}
	if strict != nil {
		return strict.byState
	}
	return 0
}

// updateWindow runs, for one window, one lookup goroutine beside one
// control goroutine that inserts schedule rules and deletes the oldest
// live one at a fixed op rate. Deletes never touch the base set, so its
// verdicts hold and the oracle stays exact. It returns the lookup rate in
// Mlookups/s and the duration of every Insert and Delete call.
func updateWindow(eng repro.Engine, in *inputs, chk *checker, t *tally, width time.Duration) (float64, samples, error) {
	ins := in.inserts
	if len(ins) <= updateLag {
		return 0, nil, fmt.Errorf("schedule holds %d insert rules, want more than %d", len(ins), updateLag)
	}
	chk.issued.Store(0)
	chk.deleted.Store(0)
	for range updateLag {
		if _, err := eng.Insert(ins[chk.issued.Add(1)-1]); err != nil {
			return 0, nil, fmt.Errorf("pre-insert: %w", err)
		}
	}
	quiesce()

	lat := make(samples, 0, int(width.Seconds()*updateRate)+1)
	var opErr error
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			due := start.Add(time.Duration(n) * time.Second / updateRate)
			if due.Sub(start) >= width {
				return
			}
			time.Sleep(time.Until(due))
			var err error
			t0 := time.Now()
			if n%2 == 0 {
				k := chk.issued.Add(1) - 1
				_, err = eng.Insert(ins[k%int64(len(ins))])
				lat = append(lat, int64(time.Since(t0)))
			} else {
				k := chk.deleted.Load()
				_, err = eng.Delete(ins[k%int64(len(ins))].ID)
				lat = append(lat, int64(time.Since(t0)))
				chk.deleted.Add(1)
			}
			if err != nil {
				t.add(1, 1)
				opErr = err
			} else {
				t.add(1, 0)
			}
		}
	}()

	loop := newLookupLoop(eng, in, t, 0)
	w := &windowCounter{start: start, width: width, ops: make([]int64, 1)}
	for {
		lo := chk.deleted.Load()
		loop.burst(func(pos int, ids []int32) int { return chk.updating(pos, ids, lo) })
		if !w.add(burstSize) {
			break
		}
	}
	wg.Wait()
	if opErr != nil {
		return 0, nil, fmt.Errorf("update phase: %w", opErr)
	}
	for k := chk.deleted.Load(); k < chk.issued.Load(); k++ {
		if _, err := eng.Delete(ins[k%int64(len(ins))].ID); err != nil {
			return 0, nil, fmt.Errorf("restoring the base ruleset: %w", err)
		}
	}
	return rates(1e6, w)[0], lat, nil
}

// swapPhase times three Engine.Replace calls alternating A -> B -> A -> B
// while a lookup goroutine keeps running and checks every burst against
// both rulesets. It also returns how many bursts mixed the two.
func swapPhase(eng repro.Engine, in *inputs, chk *checker, t *tally) (ms []float64, mixed, bursts int, err error) {
	quiesce()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		loop := newLookupLoop(eng, in, t, 0)
		for ; !stop.Load(); bursts++ {
			loop.burst(func(pos int, ids []int32) int {
				wrong, mix := chk.swapping(pos, ids)
				if mix {
					mixed++
				}
				return wrong
			})
		}
	}()
	for i, rs := range []*rule.Set{in.rsB, in.rsA, in.rsB} {
		t0 := time.Now()
		if _, err = eng.Replace(rs.Rules()); err != nil {
			t.add(1, 1)
			err = fmt.Errorf("swap %d: %w", i, err)
			break
		}
		t.add(1, 0)
		ms = append(ms, msec(time.Since(t0)))
	}
	stop.Store(true)
	wg.Wait()
	return ms, mixed, bursts, err
}

// modelOf reads the paper's side of the ledger off a decomposition
// engine: modeled Mpps at 200 MHz and modeled RAM.
func modelOf(eng repro.Engine) (mpps, cyclesPerPkt, memKiB float64, err error) {
	m, ok := eng.(interface{ ModelThroughput() repro.Throughput })
	if !ok {
		return 0, 0, 0, fmt.Errorf("engine %T carries no hardware model", eng)
	}
	tp := m.ModelThroughput()
	return tp.Mpps, tp.CyclesPerPacket, float64(eng.Memory().TotalBytes()) / 1024, nil
}
