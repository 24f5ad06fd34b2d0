//go:build linux

package main

import (
	"fmt"
	"time"

	repro "repro"
)

// setupRuns is how often one run sets up from scratch; setup_s is the
// median. The last engine and daemon stay for the timed phases.
const setupRuns = 3

// Open-loop offered rates, lookups per second on one connection. Below
// saturation the median latency is mostly idle wake-ups (pacer, daemon,
// reader), and a 2-vCPU guest moves between idle regimes: at 10 000/s
// the median read 68, 90 or 140 us for seconds at a time, at 5 000/s it
// stays within 80-105 us, so that is the end-to-end rate. At the high
// rate requests queue and the connection flips between a calm and a
// batching regime several times the latency apart, so its figures are
// traced-run diagnostics. (At 20 000/s the flipping is worst.)
const (
	openRateLow  = 5000
	openRateHigh = 40000
)

// openWindows is how many windows the end-to-end open-loop phase lasts;
// it reports the median of their median latencies.
const openWindows = 5

// runEndToEnd measures the end-to-end metrics of one workload with
// tracing off: the library phases on one engine, then the daemon phases
// against a real classifierd subprocess over loopback.
func runEndToEnd(in *inputs, cfg runConfig, bin string, t *tally) (r results, notes []string, err error) {
	r = results{}
	chk := &checker{in: in}
	w := cfg.window()

	var eng repro.Engine
	var sv *served
	var setups []float64
	for range setupRuns {
		if sv != nil {
			if err := sv.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		if eng, err = repro.New(in.spec.engineOptions(in.rsA)...); err != nil {
			return nil, nil, fmt.Errorf("engine build: %w", err)
		}
		build := time.Since(t0)
		if sv, err = serve(cfg.procs, bin, in); err != nil {
			return nil, nil, err
		}
		setups = append(setups, (build + sv.setup).Seconds())
	}
	defer func() {
		if cerr := sv.close(); err == nil {
			err = cerr
		}
	}()
	r.windows("setup_s", setups)

	// Library phases.
	verifyPass(eng, in, chk, t)
	mpps, _, memKiB, err := modelOf(eng)
	if err != nil {
		return nil, nil, err
	}
	r.set("model_mpps", mpps)
	r.set("model_mem_kib", memKiB)
	// The parallel and the under-updates rate are reported relative to the
	// single-goroutine rate of the same round, seconds earlier: the shared
	// machine slows all three together, by up to 30 % for minutes at a
	// time, and the ratio keeps what the code decides.
	var one, par, upd, speedup, kept []float64
	var updLat samples
	for range libraryRounds {
		o := lookupWindow(eng, in, chk, t, 1, w)
		p := lookupWindow(eng, in, chk, t, cfg.par, w)
		u, lat, err := updateWindow(eng, in, chk, t, w)
		if err != nil {
			return nil, nil, err
		}
		one, par, upd = append(one, o), append(par, p), append(upd, u)
		speedup, kept = append(speedup, p/o), append(kept, 100*u/o)
		updLat = append(updLat, lat...)
	}
	r.windows("lookup_mlps", one)
	r.windows("lookup_par_speedup", speedup)
	r.windows("lookup_upd_kept_pct", kept)
	notes = append(notes, fmt.Sprintf("absolute, not listed because they move with the machine: %d goroutines %.4g Mlookups/s, "+
		"under updates %.4g Mlookups/s, Insert/Delete p50 %.4g us", cfg.par, median(par), median(upd), usec(updLat.percentile(0.5))))
	swaps, mixed, bursts, err := swapPhase(eng, in, chk, t)
	if err != nil {
		return nil, nil, err
	}
	r.windows("swap_ms", swaps)
	if mixed > 0 {
		notes = append(notes, fmt.Sprintf("FINDING: %d of %d bursts classified during the swaps mixed verdicts of rulesets A and B "+
			"(the flow cache / state table is invalidated only after Replace returns)", mixed, bursts))
	}

	// Daemon phases: one process, one connection.
	seq := in.seq
	loop := newCtlLoop(sv.c, seq, chk, t, 0)
	if _, _, err := closedLoop(loop, burstSize, sv.c.MLookup, 1, w); err != nil { // warms the daemon's cache and state tables
		return nil, nil, fmt.Errorf("MLOOKUP warm-up: %w", err)
	}
	klps, _, err := closedLoop(loop, burstSize, sv.c.MLookup, 4, w)
	if err != nil {
		return nil, nil, fmt.Errorf("MLOOKUP loop: %w", err)
	}
	r.windows("daemon_klps", klps)
	_, rtt, err := closedLoop(loop, 1, loop.single, 1, 3*w/2)
	if err != nil {
		return nil, nil, fmt.Errorf("LOOKUP loop: %w", err)
	}
	r.set("daemon_rtt_p50_us", usec(rtt.percentile(0.5)))
	lines := in.lookupLines()
	open5k, err := openLoop(sv.d.addr, in, lines, chk, t, openRateLow, openWindows*w)
	if err != nil {
		return nil, nil, err
	}
	r.windows("daemon_p50_us_at_5k", open5k.windowP50s(openWindows))
	rss, err := sv.d.peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	r.set("daemon_rss_mib", rss)
	return r, notes, nil
}
