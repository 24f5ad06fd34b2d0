// Command lookupbench regenerates the paper's evaluation: Table I
// (multi-dimensional algorithm comparison), Table II (single-field engine
// comparison), Fig. 3 (ruleset update time in clock cycles), Fig. 4
// (lookup time vs packet-header-set size) and the Section IV.D throughput
// figures.
//
// Usage:
//
//	lookupbench -all
//	lookupbench -table1 -sizes 1000,10000
//	lookupbench -fig3 -fig4 -throughput
//
// Table I prints measured wall-clock ns per lookup; every other table is
// modeled cycles and modeled memory, so its output is a pure function of
// -sizes, -trace and -seed. Performance of the served engine is measured
// by the benchmark ledger (go run ./benchmark), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hwsim"
	"repro/internal/label"
	"repro/internal/lpm"
	"repro/internal/rangematch"
	"repro/internal/rule"
	"repro/internal/ruleset"
)

func main() {
	var (
		table1     = flag.Bool("table1", false, "run the Table I comparison")
		table2     = flag.Bool("table2", false, "run the Table II single-field comparison")
		fig3       = flag.Bool("fig3", false, "run the Fig. 3 update-time experiment")
		fig4       = flag.Bool("fig4", false, "run the Fig. 4 lookup-time experiment")
		throughput = flag.Bool("throughput", false, "run the Section IV.D throughput experiment")
		all        = flag.Bool("all", false, "run everything")
		sizesFlag  = flag.String("sizes", "1000,5000,10000", "comma-separated ruleset sizes")
		traceN     = flag.Int("trace", 20000, "packet header set size for lookup experiments")
		seed       = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()
	if *all {
		*table1, *table2, *fig3, *fig4, *throughput = true, true, true, true, true
	}
	if !*table1 && !*table2 && !*fig3 && !*fig4 && !*throughput {
		flag.Usage()
		os.Exit(2)
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lookupbench:", err)
		os.Exit(2)
	}
	r := runner{w: os.Stdout, sizes: sizes, traceN: *traceN, seed: *seed}
	if *table1 {
		r.tableI()
	}
	if *table2 {
		r.tableII()
	}
	if *fig3 {
		r.fig3()
	}
	if *fig4 {
		r.fig4()
	}
	if *throughput {
		r.throughput()
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// runner prints the experiments to w.
type runner struct {
	w      io.Writer
	sizes  []int
	traceN int
	seed   int64
}

func (r runner) workload(fam ruleset.Family, size int) (*rule.Set, []rule.Header) {
	s, err := ruleset.Generate(ruleset.Config{Family: fam, Size: size, Seed: r.seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lookupbench: generate:", err)
		os.Exit(1)
	}
	trace, err := ruleset.GenerateTrace(s, ruleset.TraceConfig{Size: r.traceN, HitRatio: 0.9, Seed: r.seed + 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lookupbench: trace:", err)
		os.Exit(1)
	}
	return s, trace
}

func (r runner) newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(r.w, 2, 4, 2, ' ', 0)
}

// tableI measures every baseline plus this work on each family/size.
func (r runner) tableI() {
	fmt.Fprintln(r.w, "== Table I: multi-dimensional lookup algorithms (measured) ==")
	tw := r.newTab()
	fmt.Fprintln(tw, "algorithm\truleset\tbuild\tns/lookup\tmemory\tincremental")
	for _, fam := range ruleset.Families() {
		for _, size := range r.sizes {
			set, trace := r.workload(fam, size)
			name := fmt.Sprintf("%s-%s", fam, ruleset.SizeName(size))
			for _, cls := range baseline.All() {
				start := time.Now()
				if err := cls.Build(set); err != nil {
					fmt.Fprintf(tw, "%s\t%s\t%v\t-\t-\t-\n", cls.Name(), name, err)
					continue
				}
				build := time.Since(start)
				lookups := 0
				start = time.Now()
				for _, h := range trace {
					cls.Match(h)
					lookups++
				}
				perOp := float64(time.Since(start).Nanoseconds()) / float64(lookups)
				fmt.Fprintf(tw, "%s\t%s\t%v\t%.0f\t%s\t%v\n",
					cls.Name(), name, build.Round(time.Millisecond), perOp,
					fmtBytes(cls.MemoryBytes()), cls.IncrementalUpdate())
			}
			// This work (decomposition architecture, MBT mode).
			start := time.Now()
			c, _, err := core.NewV4(core.Config{LPM: core.LPMMultiBitTrie}, set)
			if err != nil {
				fmt.Fprintf(tw, "ThisWork-MBT\t%s\t%v\t-\t-\t-\n", name, err)
				continue
			}
			build := time.Since(start)
			headers := make([]core.Header[lpm.V4], len(trace))
			for i, h := range trace {
				headers[i] = core.V4Header(h)
			}
			start = time.Now()
			for _, h := range headers {
				c.Lookup(h)
			}
			perOp := float64(time.Since(start).Nanoseconds()) / float64(len(headers))
			fmt.Fprintf(tw, "ThisWork-MBT\t%s\t%v\t%.0f\t%s\ttrue\n",
				name, build.Round(time.Millisecond), perOp, fmtBytes(c.Memory().TotalBytes()))
		}
	}
	tw.Flush()
	fmt.Fprintln(r.w)
}

// tableII compares the single-field engines on the largest configured
// ruleset's field populations.
func (r runner) tableII() {
	size := r.sizes[len(r.sizes)-1]
	fmt.Fprintf(r.w, "== Table II: single-field lookup engines (ACL-%s populations) ==\n", ruleset.SizeName(size))
	set, trace := r.workload(ruleset.ACL, size)

	var prefixes []lpm.Prefix[lpm.V4]
	var lens []uint8
	seen := map[lpm.Prefix[lpm.V4]]bool{}
	for _, rr := range set.Rules() {
		for _, p := range []rule.Prefix{rr.SrcIP, rr.DstIP} {
			lp := lpm.V4Prefix(p)
			if !seen[lp] {
				seen[lp] = true
				prefixes = append(prefixes, lp)
				lens = append(lens, p.Len)
			}
		}
	}
	tw := r.newTab()
	fmt.Fprintln(tw, "engine\tlabel method\tcycles/lookup\tmemory\tentries")

	type lpmEngine interface {
		Insert(lpm.Prefix[lpm.V4], label.Label) hwsim.Cost
		Lookup(lpm.V4, []label.Label) ([]label.Label, hwsim.Cost)
		Memory() hwsim.MemoryMap
	}
	runLPM := func(name string, labelMethod bool, eng lpmEngine) {
		for i, p := range prefixes {
			eng.Insert(p, label.Label(i))
		}
		var meter hwsim.Meter
		var buf []label.Label
		for _, h := range trace {
			var c hwsim.Cost
			buf, c = eng.Lookup(lpm.V4(h.SrcIP), buf[:0])
			meter.Charge(c)
		}
		fmt.Fprintf(tw, "%s\t%v\t%.1f\t%s\t%d\n",
			name, labelMethod, meter.CyclesPerOp(), fmtBytes(eng.Memory().TotalBytes()), len(prefixes))
	}
	mbt, err := lpm.NewMultiBitTrie[lpm.V4](8)
	exitOn(err)
	runLPM("Multi-bit Trie (s=8)", true, mbt)
	amt, err := lpm.NewVariableStrideTrie[lpm.V4](lpm.ChooseStrides(32, lens, 8))
	exitOn(err)
	runLPM("AM-Trie", true, amt)
	runLPM("Binary Search Tree", true, lpm.NewBST[lpm.V4]())
	runLPM("Binary trie + leaf pushing", false, lpm.NewLeafPushTrie[lpm.V4]())

	var ranges []rule.PortRange
	seenR := map[rule.PortRange]bool{}
	for _, rr := range set.Rules() {
		for _, pr := range []rule.PortRange{rr.SrcPort, rr.DstPort} {
			if !seenR[pr] {
				seenR[pr] = true
				ranges = append(ranges, pr)
			}
		}
	}
	runRange := func(name string, labelMethod bool, eng rangematch.Engine) {
		for i, rr := range ranges {
			if _, err := eng.Insert(rr, label.Label(i)); err != nil {
				fmt.Fprintf(tw, "%s\t%v\tinsert: %v\t-\t-\n", name, labelMethod, err)
				return
			}
		}
		var meter hwsim.Meter
		var buf []label.Label
		for _, h := range trace {
			var c hwsim.Cost
			buf, c = eng.Lookup(h.DstPort, buf[:0])
			meter.Charge(c)
		}
		fmt.Fprintf(tw, "%s\t%v\t%.1f\t%s\t%d\n",
			name, labelMethod, meter.CyclesPerOp(), fmtBytes(eng.Memory().TotalBytes()), len(ranges))
	}
	runRange("Register bank", true, rangematch.NewRegisterBank(0))
	runRange("Segment tree", true, rangematch.NewSegmentTree())
	runRange("Range tree", false, rangematch.NewRangeTree())
	tw.Flush()
	fmt.Fprintln(r.w)
}

// fig3 prints update cycles per ruleset for MBT mode, BST mode and the
// original rule filter.
func (r runner) fig3() {
	fmt.Fprintln(r.w, "== Fig. 3: ruleset update time (clock cycles) ==")
	tw := r.newTab()
	fmt.Fprintln(tw, "ruleset\tMBT mode\tBST mode\toriginal rule filter")
	for _, fam := range ruleset.Families() {
		for _, size := range r.sizes {
			set, _ := r.workload(fam, size)
			tuples := core.CompileSet(set)
			cycles := func(cfg core.Config) int {
				c, err := core.New[lpm.V4](cfg, core.PrefixLens(set))
				exitOn(err)
				cost, err := c.Build(tuples)
				exitOn(err)
				return cost.Cycles
			}
			mbt := cycles(core.Config{LPM: core.LPMMultiBitTrie})
			bst := cycles(core.Config{LPM: core.LPMBinarySearchTree})
			filter := 2*size + 1
			fmt.Fprintf(tw, "%s-%s\t%d\t%d\t%d\n", fam, ruleset.SizeName(size), mbt, bst, filter)
		}
	}
	tw.Flush()
	fmt.Fprintln(r.w)
}

// fig4 prints modeled lookup cycles against PHS size for both LPM modes.
func (r runner) fig4() {
	fmt.Fprintln(r.w, "== Fig. 4: lookup time vs packet header set size (clock cycles) ==")
	size := r.sizes[len(r.sizes)-1]
	set, trace := r.workload(ruleset.ACL, size)
	phsSizes := []int{1000, 2000, 5000, 10000, 20000}
	tw := r.newTab()
	header := "PHS size"
	for _, mode := range []string{"MBT", "BST"} {
		header += "\t" + mode
	}
	fmt.Fprintln(tw, header+"\tMBT/BST ratio")

	models := map[string]*core.Classifier[lpm.V4]{}
	for name, cfg := range map[string]core.Config{
		"MBT": {LPM: core.LPMMultiBitTrie},
		"BST": {LPM: core.LPMBinarySearchTree},
	} {
		c, _, err := core.NewV4(cfg, set)
		exitOn(err)
		for _, h := range trace {
			c.Lookup(core.V4Header(h))
		}
		models[name] = c
	}
	for _, phs := range phsSizes {
		mbt := models["MBT"].LookupCycles(phs)
		bst := models["BST"].LookupCycles(phs)
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%.1fx\n", phs, mbt, bst, bst/mbt)
	}
	tw.Flush()
	fmt.Fprintln(r.w)
}

// throughput prints the Section IV.D figures.
func (r runner) throughput() {
	size := r.sizes[len(r.sizes)-1]
	fmt.Fprintf(r.w, "== Section IV.D: throughput at 200 MHz, 72 B min frames (ACL-%s) ==\n", ruleset.SizeName(size))
	set, trace := r.workload(ruleset.ACL, size)
	tw := r.newTab()
	fmt.Fprintln(tw, "mode\tcycles/packet\tMpps\tGbps\tmemory")
	for _, mode := range []struct {
		name string
		cfg  core.Config
	}{
		{"MBT", core.Config{LPM: core.LPMMultiBitTrie}},
		{"BST", core.Config{LPM: core.LPMBinarySearchTree}},
		{"AM-Trie", core.Config{LPM: core.LPMAMTrie}},
	} {
		c, _, err := core.NewV4(mode.cfg, set)
		exitOn(err)
		for _, h := range trace {
			c.Lookup(core.V4Header(h))
		}
		tp := c.Throughput()
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%s\n",
			mode.name, tp.CyclesPerPacket, tp.Mpps, tp.Gbps, fmtBytes(c.Memory().TotalBytes()))
	}
	tw.Flush()
	fmt.Fprintln(r.w)
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lookupbench:", err)
		os.Exit(1)
	}
}
