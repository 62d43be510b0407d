package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"press/server"
	"press/trace"
	"press/tracing"
)

const (
	// defaultSeconds is the measured time of one run per workload.
	defaultSeconds = 36
	// setupSpawns is how many times each deployment is set up per run;
	// setup_s reports the median.
	setupSpawns = 3
	// rounds is how many closed-loop and open-loop slices each
	// deployment gets per run. The deployments take turns slice by
	// slice, so a slow spell of the shared host hits all three alike and
	// only some of each one's slices; the end-to-end metrics are medians
	// over the slices.
	rounds = 7
	// closedShare is the closed loop's share of each slice, whose
	// throughput and CPU are the end-to-end metrics; the open loop gets
	// the rest.
	closedShare = 0.6
	// tracedRequests is the length of each deployment's traced run.
	tracedRequests = 3000
	// spansPerRequest bounds the spans one request records across all
	// nodes; it sizes the traced run's span rings.
	spansPerRequest = 16
	// warmRequests is the closed-loop stream requests of a warm-up,
	// after the sweep over every file.
	warmRequests = 2000
	// streamLength is the number of requests synthesized per run; the
	// drive phases walk it and wrap around.
	streamLength = 1 << 18
)

// bench is one workload's run.
type bench struct {
	w        workload
	seed     int64
	seconds  int
	traced   bool
	binDir   string
	outDir   string
	maxConns int

	tr      *trace.Trace
	drv     *driver
	clk     clock
	spans   spanLog
	tracePF string // files-only trace handed to the server process

	driverCPU time.Duration // the driver's own CPU time over the rounds
}

// depRun is one deployment's run: its live server process while the
// rounds go on, and what the phases measured.
type depRun struct {
	dep   deployment
	c     *child
	urls  target
	trace tracing.TraceID // the deployment's bench span trace
	root  tracing.SpanID
	start int64

	setups    []float64
	warmupS   float64
	warm      []sample
	slices    []slice
	teardownS float64
	traced    *tracedRun
}

// slice is one round's closed loop and open loop on one deployment.
type slice struct {
	closed   []sample
	closedEl time.Duration
	open     []sample
	before   snap // before the closed loop
	mid      snap // after the closed loop
	after    snap // after the open loop
}

// tracedRun is one deployment's separate run with Tracer and Metrics on.
type tracedRun struct {
	warm    []sample
	samples []sample
	elapsed time.Duration
	before  snap
	after   snap
	dump    spanDump
}

func (b *bench) run() (*runResult, error) {
	b.clk = clock{origin: time.Now()}
	spec := b.w.spec
	spec.Name, spec.Seed, spec.NumRequests = b.w.name, b.seed, streamLength
	tr, err := trace.Synthesize(spec)
	if err != nil {
		return nil, err
	}
	b.tr = tr
	content := make([][]byte, len(tr.Files))
	for i, f := range tr.Files {
		content[i] = server.SynthesizeContent(f.Name, f.Size)
	}
	b.drv = newDriver(tr, content, b.maxConns, b.seed, &b.clk)

	// The server process gets the file population only.
	b.tracePF = filepath.Join(b.outDir, "run", fmt.Sprintf("%d-%s.trace", os.Getpid(), b.w.name))
	if err := writeTrace(b.tracePF, tr.Truncate(0)); err != nil {
		return nil, err
	}
	defer os.Remove(b.tracePF)

	runs := make([]*depRun, len(deployments))
	defer func() {
		for _, r := range runs {
			if r != nil && r.c != nil {
				r.c.kill()
			}
		}
	}()
	for i, dep := range deployments {
		if runs[i], err = b.setUp(dep); err != nil {
			return nil, fmt.Errorf("%s: %w", dep.name, err)
		}
	}
	for _, r := range runs {
		ws := b.clk.now()
		r.warm = b.warm(r.urls)
		we := b.clk.now()
		r.warmupS = float64(we-ws) / 1e9
		b.spans.child(r.trace, r.root, "warm-up", ws, we)
	}

	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(b.seed))
	slot := float64(b.seconds) / float64(rounds*len(deployments)) * float64(time.Second)
	closedFor, openFor := time.Duration(slot*closedShare), time.Duration(slot*(1-closedShare))
	for round := 0; round < rounds; round++ {
		for k := range runs {
			r := runs[(round+k)%len(runs)]
			if err := b.slice(r, closedFor, openFor, rng); err != nil {
				return nil, fmt.Errorf("%s: %w", r.dep.name, err)
			}
		}
	}

	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	b.driverCPU = cpu1 - cpu0

	for _, r := range runs {
		ts := b.clk.now()
		c := r.c
		r.c = nil
		if r.teardownS, err = c.closeCluster(); err != nil {
			return nil, fmt.Errorf("%s: %w", r.dep.name, err)
		}
		b.spans.child(r.trace, r.root, "teardown", ts, b.clk.now())
	}
	if b.traced {
		for _, r := range runs {
			if r.traced, err = b.tracedRun(r); err != nil {
				return nil, fmt.Errorf("%s traced: %w", r.dep.name, err)
			}
		}
	}
	for _, r := range runs {
		b.spans.add(r.trace, r.root, 0, "deployment", r.start, b.clk.now(), str("deployment", r.dep.name))
	}

	var probes []probeResult
	if b.traced {
		if probes, err = runProbes(tr, b.w.cacheBytes, &b.clk); err != nil {
			return nil, err
		}
		for _, p := range probes {
			b.spans.root(p.name, p.start, p.end)
		}
		if err := b.writeSpans(runs); err != nil {
			return nil, err
		}
	}
	return b.compute(runs, probes), nil
}

func writeTrace(path string, tr *trace.Trace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := tr.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func (b *bench) childConfig(dep deployment, spans int) childConfig {
	return childConfig{
		bin: filepath.Join(b.binDir, "pressbench-server"), tracePath: b.tracePF,
		dep: dep, cacheBytes: b.w.cacheBytes, spans: spans,
	}
}

// start spawns a server process and waits until every node serves a
// verified file; it returns the child and the spawn-to-serving time.
func (b *bench) start(cfg childConfig, tr tracing.TraceID, parent tracing.SpanID) (*child, target, float64, error) {
	t0 := b.clk.now()
	c, err := spawn(cfg)
	if err != nil {
		return nil, target{}, 0, err
	}
	urls := b.drv.target(c.addrs)
	if err := b.ready(urls); err != nil {
		c.kill()
		return nil, target{}, 0, err
	}
	t1 := b.clk.now()
	b.spans.child(tr, parent, "setup", t0, t1)
	return c, urls, float64(t1-t0) / 1e9, nil
}

// ready asks every node for the most popular file and checks the reply.
// The server process prints its addresses only after server.Start has
// bound every listener, so a node that cannot serve then is a failed
// setup, not one to wait for.
func (b *bench) ready(urls target) error {
	cs := b.drv.clients(urls)
	defer closeAll(cs)
	for n := range urls.addrs {
		if !cs[0].get(0, n) {
			return fmt.Errorf("node %d does not serve after start", n)
		}
	}
	return nil
}

// setUp spawns the deployment setupSpawns times, timing each from
// spawn to serving, and keeps the last server process running.
func (b *bench) setUp(dep deployment) (*depRun, error) {
	r := &depRun{dep: dep, start: b.clk.now()}
	r.trace, r.root = b.spans.newTrace()
	cfg := b.childConfig(dep, 0)
	for i := 0; i < setupSpawns; i++ {
		c, urls, s, err := b.start(cfg, r.trace, r.root)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, s)
		if i < setupSpawns-1 {
			c.kill()
			continue
		}
		r.c, r.urls = c, urls
	}
	return r, nil
}

// warm sweeps every file once and then runs warmRequests closed-loop
// requests of the stream, so caches and the directory settle before
// timing.
func (b *bench) warm(urls target) []sample {
	s := b.drv.sweep(urls)
	c, _ := b.drv.closedLoop(urls, time.Minute, warmRequests)
	return append(s, c...)
}

// slice runs one round's closed loop and open loop on one deployment,
// with counter snapshots around each.
func (b *bench) slice(r *depRun, closedFor, openFor time.Duration, rng *rand.Rand) error {
	var s slice
	var err error
	if s.before, err = r.c.snap(); err != nil {
		return err
	}
	cs := b.clk.now()
	s.closed, s.closedEl = b.drv.closedLoop(r.urls, closedFor, 0)
	b.spans.child(r.trace, r.root, "closed-loop", cs, b.clk.now())
	if s.mid, err = r.c.snap(); err != nil {
		return err
	}
	ost := b.clk.now()
	s.open = b.drv.openLoop(r.urls, openFor, b.w.rate, rng)
	b.spans.child(r.trace, r.root, "open-loop", ost, b.clk.now())
	if s.after, err = r.c.snap(); err != nil {
		return err
	}
	if b.traced {
		b.spans.requests("open-loop", s.open)
	}
	r.slices = append(r.slices, s)
	return nil
}

// tracedRun sets the deployment up again with Tracer (every request
// sampled, rings sized so none drops) and Metrics on, warms it the same
// way, and drives tracedRequests closed-loop requests.
func (b *bench) tracedRun(r *depRun) (*tracedRun, error) {
	spans := 2 * (len(b.tr.Files) + warmRequests + tracedRequests) * spansPerRequest
	c, urls, _, err := b.start(b.childConfig(r.dep, spans), r.trace, r.root)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	ws := b.clk.now()
	t := &tracedRun{warm: b.warm(urls)}
	b.spans.child(r.trace, r.root, "traced-warm-up", ws, b.clk.now())
	m0 := b.clk.now()
	var mark struct{ ClockNs int64 }
	if err := c.call("mark", &mark); err != nil {
		return nil, err
	}
	// Offset of the server's tracer clock from the driver's clock.
	offset := mark.ClockNs - (m0+b.clk.now())/2
	if t.before, err = c.snap(); err != nil {
		return nil, err
	}
	cs := b.clk.now()
	t.samples, t.elapsed = b.drv.closedLoop(urls, time.Minute, tracedRequests)
	b.spans.child(r.trace, r.root, "traced-closed-loop", cs, b.clk.now())
	b.spans.requests("traced-closed-loop", t.samples)
	if t.after, err = c.snap(); err != nil {
		return nil, err
	}
	if err := c.call("spans", &t.dump); err != nil {
		return nil, err
	}
	for i := range t.dump.Records {
		t.dump.Records[i].Start -= offset
	}
	return t, nil
}

// writeSpans writes each deployment's traced-run server spans and the
// benchmark's own spans, all on the driver's clock, under
// .bench_build/traces/<workload>/.
func (b *bench) writeSpans(runs []*depRun) error {
	dir := filepath.Join(b.outDir, "traces", b.w.name)
	for _, r := range runs {
		if err := writeChrome(filepath.Join(dir, r.dep.name+".server.json"), r.traced.dump.Records); err != nil {
			return err
		}
	}
	return writeChrome(filepath.Join(dir, "bench.json"), b.spans.recs)
}
