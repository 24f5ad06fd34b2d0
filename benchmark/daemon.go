//go:build linux

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ctl"
	"repro/internal/rule"
)

// benchTable is the table every daemon phase addresses.
const benchTable = "bench"

// buildDaemon compiles cmd/classifierd into the benchmark's out
// directory. It is not timed: setup_s excludes go build.
func buildDaemon(cfg runConfig) (string, error) {
	bin := filepath.Join(cfg.outDir, "classifierd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/classifierd")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/classifierd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one classifierd subprocess on ephemeral loopback ports.
type daemon struct {
	cmd      *exec.Cmd
	addr     string // ctl listen address
	httpAddr string
	log      *lockedBuffer
	exited   chan struct{} // closed once Wait has returned
	waitErr  error
}

// lockedBuffer collects the daemon's log while its goroutine scans it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) add(line string) {
	l.mu.Lock()
	l.b.WriteString(line + "\n")
	l.mu.Unlock()
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

const daemonStartTimeout = 15 * time.Second

// startDaemon launches the daemon and returns once it has logged both
// listen addresses. The caller owns the process and must call stop;
// cancelling the group's context kills it on the way out of a signal.
func startDaemon(procs *procGroup, bin string) (*daemon, error) {
	cmd := exec.CommandContext(procs.ctx, bin, "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	procs.wg.Add(1)
	d := &daemon{cmd: cmd, log: &lockedBuffer{}, exited: make(chan struct{})}
	addrs := make(chan [2]string, 1) // one send: both addresses
	go func() {
		var ctlAddr string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.log.add(line)
			if _, a, ok := strings.Cut(line, "classifier daemon listening on "); ok {
				ctlAddr = a
			}
			if _, a, ok := strings.Cut(line, "http plane (metrics + admin API) on "); ok {
				addrs <- [2]string{ctlAddr, a}
			}
		}
		// The pipe is drained; only now may Wait close it.
		d.waitErr = cmd.Wait()
		close(d.exited)
		procs.wg.Done()
	}()
	select {
	case a := <-addrs:
		d.addr, d.httpAddr = a[0], a[1]
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("classifierd exited before listening: %v\n%s", d.waitErr, d.log)
	case <-time.After(daemonStartTimeout):
		d.kill()
		return nil, fmt.Errorf("classifierd did not listen within %v\n%s", daemonStartTimeout, d.log)
	}
}

// stop asks the daemon to drain, waits for it to exit and reports a
// daemon that had to be killed or exited uncleanly.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("classifierd exited early: %v\n%s", d.waitErr, d.log)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal classifierd: %w", err)
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("classifierd stop: %v\n%s", d.waitErr, d.log)
		}
		return nil
	case <-time.After(10 * time.Second):
		d.kill()
		return fmt.Errorf("classifierd did not stop on SIGTERM and was killed\n%s", d.log)
	}
}

// kill is the exit path of last resort: SIGKILL, then reap.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// peakRSSMiB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMiB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// served is a daemon loaded with the workload's ruleset A and one open
// ctl connection addressing the bench table.
type served struct {
	d        *daemon
	c        *ctl.Client
	setup    time.Duration // start -> first correct LOOKUP
	bulkLoad time.Duration // the BulkInsert call inside it
}

func (s *served) close() error {
	s.c.Close()
	return s.d.stop()
}

// serve is the operator's half of setup_s: start the daemon, probe it
// ready, create the table, bulk-load the rules and get a first correct
// verdict back.
func serve(procs *procGroup, bin string, in *inputs) (*served, error) {
	t0 := time.Now()
	d, err := startDaemon(procs, bin)
	if err != nil {
		return nil, err
	}
	s := &served{d: d}
	fail := func(err error) (*served, error) {
		if s.c != nil {
			s.c.Close()
		}
		d.stop()
		return nil, err
	}
	if s.c, err = ctl.Dial(d.addr); err != nil {
		return fail(err)
	}
	if _, err := s.c.Tables(); err != nil {
		return fail(fmt.Errorf("readiness probe: %w", err))
	}
	if err := s.c.TableCreateStateful(benchTable, "decomposition", 1, in.spec.cache, in.spec.state); err != nil {
		return fail(err)
	}
	if err := s.c.TableUse(benchTable); err != nil {
		return fail(err)
	}
	t1 := time.Now()
	if _, err := s.c.BulkInsert(in.rsA.Rules()); err != nil {
		return fail(err)
	}
	s.bulkLoad = time.Since(t1)
	first := in.order[0]
	res, err := s.c.Lookup(in.pool[first])
	if err != nil {
		return fail(err)
	}
	if int32(res.RuleID) != in.expA[first] {
		return fail(fmt.Errorf("first LOOKUP returned rule %d, oracle says %d", res.RuleID, in.expA[first]))
	}
	s.setup = time.Since(t0)
	return s, nil
}

// ctlLoop drives one ctl connection in a closed loop over the visiting
// order, n headers per call.
type ctlLoop struct {
	c   *ctl.Client
	seq []rule.Header
	chk *checker
	t   *tally
	pos int
	ids []int32
}

func newCtlLoop(c *ctl.Client, seq []rule.Header, chk *checker, t *tally, start int) *ctlLoop {
	return &ctlLoop{c: c, seq: seq, chk: chk, t: t, pos: start % len(seq)}
}

// call classifies the next n headers through do (MLookup, Lookup or
// PipelineLookups) and checks them; an error reply fails all n.
func (l *ctlLoop) call(n int, do func([]rule.Header) ([]ctl.LookupResult, error)) error {
	if l.pos+n > len(l.seq) {
		l.pos = 0
	}
	res, err := do(l.seq[l.pos : l.pos+n])
	if err != nil || len(res) != n {
		l.t.add(n, n)
		if err == nil {
			err = fmt.Errorf("%d results for %d headers", len(res), n)
		}
		return err
	}
	l.ids = l.ids[:0]
	for _, r := range res {
		l.ids = append(l.ids, int32(r.RuleID))
	}
	l.t.add(n, l.chk.steady(l.pos, l.ids))
	l.pos += n
	return nil
}

func (l *ctlLoop) single(hs []rule.Header) ([]ctl.LookupResult, error) {
	r, err := l.c.Lookup(hs[0])
	return []ctl.LookupResult{r}, err
}

// closedLoop runs calls of n headers back to back for the given windows
// and returns K lookups/s per window plus the duration of every call.
func closedLoop(l *ctlLoop, n int, do func([]rule.Header) ([]ctl.LookupResult, error), windows int, width time.Duration) ([]float64, samples, error) {
	quiesce()
	var lat samples
	w := newWindowCounter(windows, width)
	for {
		t0 := time.Now()
		if err := l.call(n, do); err != nil {
			return nil, nil, err
		}
		lat = append(lat, int64(time.Since(t0)))
		if !w.add(n) {
			break
		}
	}
	return rates(1e3, w), lat, nil
}

// lookupLines renders the ctl request line of every pool header once, so
// the open-loop generator only copies bytes.
func (in *inputs) lookupLines() [][]byte {
	lines := make([][]byte, len(in.pool))
	for i, h := range in.pool {
		lines[i] = fmt.Appendf(nil, "LOOKUP %s %s %d %d %d\n", dotted(h.SrcIP), dotted(h.DstIP), h.SrcPort, h.DstPort, h.Proto)
	}
	return lines
}

func dotted(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// openLoopStats is one fixed-rate phase.
type openLoopStats struct {
	latency    samples // response received minus the instant the request was due
	late       samples // request written minus the instant it was due
	backlogMax int64   // most requests written and not yet answered
}

// windowP50s splits the phase into n equal stretches of the request
// schedule and returns the median latency of each, in microseconds.
func (st *openLoopStats) windowP50s(n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		part := append(samples(nil), st.latency[k*len(st.latency)/n:(k+1)*len(st.latency)/n]...)
		out[k] = usec(part.percentile(0.5))
	}
	return out
}

// The generator is the limit, not the daemon, when the last request left
// this share of the phase length after it was due. Below the floor the
// lateness is one scheduler hiccup on a shared machine, not a generator
// that cannot keep the rate, and only shows in ctl.gen_late_p99_us.
const (
	generatorLateShare = 0.05
	generatorLateFloor = 100 * time.Millisecond
)

// openLoop offers pipelined LOOKUPs on one connection at a fixed rate:
// request i is due at start + i/rate whatever happened to the ones
// before it, and is timed from that instant, so a stall shows up in the
// latency of everything queued behind it. The generator sleeps to the
// next due time and writes everything that has come due in one write.
func openLoop(addr string, in *inputs, lines [][]byte, chk *checker, t *tally, rate float64, dur time.Duration) (openLoopStats, error) {
	var st openLoopStats
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return st, err
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	if _, err := fmt.Fprintf(conn, "TABLE USE %s\n", benchTable); err != nil {
		return st, err
	}
	if resp, err := rd.ReadString('\n'); err != nil || strings.TrimSpace(resp) != "OK" {
		return st, fmt.Errorf("TABLE USE: %q %v", resp, err)
	}
	quiesce()

	n := int(rate * dur.Seconds())
	gap := time.Duration(float64(time.Second) / rate)
	st.latency = make(samples, 0, n)
	st.late = make(samples, n)
	var written atomic.Int64
	var writeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		sleep := preciseSleeper()
		var buf []byte
		for i := 0; i < n; {
			now := time.Since(start)
			due := min(n, int(now/gap)+1)
			if i >= due {
				sleep(time.Duration(i)*gap - now)
				continue
			}
			due = min(due, i+512)
			buf = buf[:0]
			for k := i; k < due; k++ {
				buf = append(buf, lines[in.order[k%len(in.order)]]...)
				st.late[k] = int64(now - time.Duration(k)*gap)
			}
			if _, writeErr = conn.Write(buf); writeErr != nil {
				conn.Close() // unblocks the reader
				return
			}
			written.Store(int64(due))
			i = due
		}
	}()

	conn.SetReadDeadline(start.Add(dur + 10*time.Second))
	var readErr error
	for j := 0; j < n; j++ {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			readErr = err
			t.add(n-j, n-j) // timed out or refused: everything still owed has failed
			break
		}
		st.latency = append(st.latency, int64(time.Since(start)-time.Duration(j)*gap))
		st.backlogMax = max(st.backlogMax, written.Load()-int64(j))
		i := in.order[j%len(in.order)]
		id, perr := parseVerdict(line)
		if perr != nil || !ok(id, in.expA[i], in.altA, i) {
			t.add(1, 1)
			continue
		}
		t.add(1, 0)
	}
	conn.Close()
	wg.Wait()
	if writeErr != nil || readErr != nil {
		return st, fmt.Errorf("open loop at %.0f/s: write %v, read %v", rate, writeErr, readErr)
	}
	if last := time.Duration(st.late[n-1]); last > max(time.Duration(generatorLateShare*float64(dur)), generatorLateFloor) {
		return st, fmt.Errorf("open loop at %.0f/s: the generator fell behind (last request left %v late)", rate, last)
	}
	return st, nil
}

// preciseSleeper pins the calling goroutine to its OS thread and returns
// a sleep good to a few microseconds. The runtime rounds a short
// time.Sleep on an idle machine up to about a millisecond, which would
// batch dozens of requests and read as latency; spinning instead takes a
// core from the daemon under test. So the pacer sleeps in the kernel,
// with the thread's timer slack (50 us by default) turned down.
func preciseSleeper() func(time.Duration) {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: the default slack only costs precision
	return func(d time.Duration) {
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up just loops in the caller
	}
}

// parseVerdict decodes "MATCH <id> <prio> <action>" or "NOMATCH" into
// the rule ID (0 for no match).
func parseVerdict(line []byte) (int32, error) {
	line = bytes.TrimSpace(line)
	if bytes.Equal(line, []byte("NOMATCH")) {
		return 0, nil
	}
	rest, ok := bytes.CutPrefix(line, []byte("MATCH "))
	if !ok {
		return 0, fmt.Errorf("unexpected reply %q", line)
	}
	idField, _, _ := bytes.Cut(rest, []byte(" "))
	id, err := strconv.ParseInt(string(idField), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("rule id in %q", line)
	}
	return int32(id), nil
}

// echoServer answers every line with the same line: the loopback and
// runtime floor under any ctl round trip of that size.
type echoServer struct {
	l  net.Listener
	wg sync.WaitGroup
}

func startEcho() (*echoServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{l: l}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				defer conn.Close()
				rd := bufio.NewReaderSize(conn, 1<<16)
				for {
					line, err := rd.ReadSlice('\n')
					if err != nil {
						return
					}
					if _, err := conn.Write(line); err != nil {
						return
					}
				}
			}()
		}
	}()
	return e, nil
}

// stop closes the listener and waits for every connection's goroutine;
// callers close their client connections first.
func (e *echoServer) stop() {
	e.l.Close()
	e.wg.Wait()
}

// echoRTT measures closed-loop round trips of the given request lines
// for dur and returns their durations.
func echoRTT(addr string, lines [][]byte, dur time.Duration) (samples, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	rd := bufio.NewReaderSize(conn, 1<<16)
	var lat samples
	for start, i := time.Now(), 0; time.Since(start) < dur; i++ {
		t0 := time.Now()
		if _, err := conn.Write(lines[i%len(lines)]); err != nil {
			return nil, err
		}
		if _, err := rd.ReadSlice('\n'); err != nil {
			return nil, err
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	return lat, nil
}
