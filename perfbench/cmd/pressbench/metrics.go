package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"press/core"
	"press/metrics"
	"press/server"
	"press/tracing"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// integrityBand is how far, as a share of the mean client latency,
// edge.http_us plus the traced run's mean per-phase self times, less
// the asynchronous time tracing.async_us, may sum away from the mean
// client latency.
const integrityBand = 0.02

// End-to-end metric definitions, per deployment and global.
var (
	e2ePerDep = []metric{
		{name: "rps", unit: "1/s"},
		{name: "cpu_us_per_req", unit: "us"},
	}
	e2eGlobal = []metric{
		{name: "setup_s", unit: "s"},
		{name: "served_ratio", unit: "ratio"},
	}
)

// Per-layer metric definitions per deployment. A metric is not
// reported for the deployments in absent, where its layer does not
// exist: tcp has no VIA and no credit flow control, and V5's zero-copy
// path has no staging copy.
type layerDef struct {
	name, unit string
	absent     []string
}

var (
	noTCP = []string{"tcp"}
	noV5  = []string{"via_v5"}
)

var layerPerDep = []layerDef{
	// The open-loop latencies are end to end by nature, but on a shared
	// two-vCPU host their run-to-run spread exceeds the largest bound an
	// end-to-end metric may have (see README.md), so they are reported
	// here, unbounded.
	{"p50_ms", "ms", nil},
	{"p99_ms", "ms", nil},
	{"edge.accept_us", "us", nil},
	{"edge.reply_us", "us", nil},
	{"edge.http_us", "us", nil},
	{"node.dispatch_us", "us", nil},
	{"transport.net_us", "us", nil},
	{"transport.stall_us", "us", noTCP},
	{"transport.copy_us", "us", noV5},
	{"store.disk_us", "us", nil},
	{"tracing.unattributed_us", "us", nil},
	{"tracing.async_us", "us", nil},
	{"tracing.overhead_pct", "%", nil},
	{"node.forward_ratio", "ratio", nil},
	{"cache.hit_ratio", "ratio", nil},
	{"store.disk_reads_per_req", "count", nil},
	{"directory.msgs_per_req", "count", nil},
	{"transport.msgs_per_req", "count", nil},
	{"transport.file_bytes_per_req", "B", nil},
	{"transport.copied_bytes_per_req", "B", nil},
	{"transport.credit_stalls_per_kreq", "count", nil},
	{"via.sends_per_req", "count", noTCP},
	{"via.rmw_per_req", "count", noTCP},
	{"via.send_latency_p50_us", "us", noTCP},
	{"transport.retries", "count", nil},
	{"health.failovers", "count", nil},
	{"directory.purged", "count", nil},
	{"transport.reconnects", "count", nil},
	{"runtime.cpu_busy", "s/s", nil},
	{"runtime.allocs_per_req", "count", nil},
	{"runtime.bytes_per_req", "B", nil},
	{"runtime.gc_per_kreq", "count", nil},
	{"runtime.rss_mb", "MB", nil},
	{"runtime.warmup_s", "s", nil},
	{"runtime.teardown_s", "s", nil},
	{"client.lag_p99_ms", "ms", nil},
	{"client.slow_1s", "count", nil},
}

var probeDefs = []layerDef{
	{"probe.via_send_us", "us", nil},
	{"probe.via_rdma_us", "us", nil},
	{"probe.via_load64_ns", "ns", nil},
	{"probe.codec_ns", "ns", nil},
	{"probe.lru_ns", "ns", nil},
}

func endToEndCatalog() []metric {
	var out []metric
	for _, d := range deployments {
		for _, m := range e2ePerDep {
			m.name = d.name + "." + m.name
			out = append(out, m)
		}
	}
	return append(out, e2eGlobal...)
}

func perLayerCatalog() []metric {
	var out []metric
	for _, d := range deployments {
		for _, l := range layerPerDep {
			if slices.Contains(l.absent, d.name) {
				continue
			}
			out = append(out, metric{name: d.name + "." + l.name, unit: l.unit})
		}
	}
	for _, l := range probeDefs {
		out = append(out, metric{name: l.name, unit: l.unit})
	}
	return out
}

// runResult is one workload's metrics and checks.
type runResult struct {
	endToEnd  []metric
	perLayer  []metric
	attempted int64
	failed    int64
	checks    []string // failed checks
	notes     []string
}

func (r *runResult) correct() bool { return r.failed == 0 && len(r.checks) == 0 }

// values fills the catalog entries from computed values by name; a
// catalog entry without a value is a bug.
func fill(cat []metric, vals map[string]float64) []metric {
	for i := range cat {
		v, ok := vals[cat[i].name]
		if !ok {
			panic("pressbench: no value for metric " + cat[i].name)
		}
		cat[i].value = v
	}
	return cat
}

func (b *bench) compute(runs []*depRun, probes []probeResult) *runResult {
	res := &runResult{}
	e2e := map[string]float64{}
	layer := map[string]float64{}
	count := func(ss []sample) {
		for _, s := range ss {
			res.attempted++
			if !s.ok {
				res.failed++
			}
		}
	}
	var setupMax float64
	for _, r := range runs {
		d := r.dep.name + "."
		count(r.warm)
		if s := median(r.setups); s > setupMax {
			setupMax = s
		}
		// End to end: medians over the rounds' slices.
		var rpss, cpus, p50s, p99s []float64
		var sum counters
		var open, all []sample
		for _, sl := range r.slices {
			count(sl.closed)
			count(sl.open)
			ok := float64(okCount(sl.closed))
			cpu := sl.mid.cpu - sl.before.cpu
			rpss = append(rpss, ok/sl.closedEl.Seconds())
			cpus = append(cpus, ratio(float64(cpu.Microseconds()), ok))
			lat := latencies(sl.open)
			p50s = append(p50s, quantile(lat, 0.50)/1e6)
			p99s = append(p99s, quantile(lat, 0.99)/1e6)
			sum.addClosed(sl, ok)
			sum.addStats(sl.after.Stats, sl.before.Stats)
			open = append(open, sl.open...)
			all = append(append(all, sl.closed...), sl.open...)
		}
		// CPU the process burns while the other deployments are driven.
		var idleCPU time.Duration
		var idleWall float64
		for k := 1; k < len(r.slices); k++ {
			prev, next := r.slices[k-1].after, r.slices[k].before
			idleCPU += next.cpu - prev.cpu
			idleWall += next.at.Sub(prev.at).Seconds()
		}
		if idleWall > 0 {
			res.notes = append(res.notes, fmt.Sprintf("%s idle between its slices: %.3f CPU-s/s over %.1f s",
				r.dep.name, idleCPU.Seconds()/idleWall, idleWall))
		}
		rps := median(rpss)
		e2e[d+"rps"] = rps
		e2e[d+"cpu_us_per_req"] = median(cpus)
		layer[d+"p50_ms"] = median(p50s)
		layer[d+"p99_ms"] = quantile(latencies(open), 0.99) / 1e6
		res.notes = append(res.notes, fmt.Sprintf("%s per slice: rps %s; p50 ms %s; p99 ms %s (%d open-loop requests at %.0f/s)",
			r.dep.name, join(rpss, "%.0f"), join(p50s, "%.3f"), join(p99s, "%.2f"), len(open), b.w.rate))

		// Server process, summed over the closed loops.
		layer[d+"runtime.cpu_busy"] = ratio(sum.cpu.Seconds(), sum.wall)
		layer[d+"runtime.allocs_per_req"] = ratio(sum.mallocs, sum.ok)
		layer[d+"runtime.bytes_per_req"] = ratio(sum.bytes, sum.ok)
		layer[d+"runtime.gc_per_kreq"] = ratio(1000*sum.gcs, sum.ok)
		layer[d+"runtime.rss_mb"] = r.slices[len(r.slices)-1].after.rssMB
		layer[d+"runtime.warmup_s"] = r.warmupS
		layer[d+"runtime.teardown_s"] = r.teardownS

		// Cluster.Stats deltas over both loops of every slice.
		reqs := sum.reqs
		layer[d+"node.forward_ratio"] = ratio(sum.forwarded, reqs)
		layer[d+"cache.hit_ratio"] = 1 - ratio(sum.disk, reqs)
		layer[d+"store.disk_reads_per_req"] = ratio(sum.disk, reqs)
		layer[d+"directory.msgs_per_req"] = ratio(sum.dirMsgs, reqs)
		layer[d+"transport.msgs_per_req"] = ratio(sum.msgs, reqs)
		layer[d+"transport.file_bytes_per_req"] = ratio(sum.fileBytes, reqs)
		layer[d+"transport.copied_bytes_per_req"] = ratio(sum.copied, reqs)
		layer[d+"transport.credit_stalls_per_kreq"] = ratio(1000*sum.stalls, reqs)

		// Driver.
		var lags []int64
		for _, s := range open {
			if s.woken {
				lags = append(lags, s.lag)
			}
		}
		layer[d+"client.lag_p99_ms"] = quantile(lags, 0.99) / 1e6
		slow := 0
		for _, s := range all {
			if !s.ok || s.latency() > int64(slowLimit) {
				slow++
			}
		}
		layer[d+"client.slow_1s"] = float64(slow)

		if t := r.traced; t != nil {
			count(t.warm)
			count(t.samples)
			b.traced1(res, r, rps, layer)
		}
	}
	e2e["setup_s"] = setupMax
	e2e["served_ratio"] = 1 - float64(res.failed)/float64(res.attempted)
	res.endToEnd = fill(endToEndCatalog(), e2e)
	if b.traced {
		for _, p := range probes {
			layer[p.name] = p.value
		}
		res.perLayer = fill(perLayerCatalog(), layer)
	}
	if res.failed > 0 {
		res.checks = append(res.checks, fmt.Sprintf("%d of %d requests failed (non-200, wrong body, transport error or timeout)", res.failed, res.attempted))
	}
	if m := b.drv.maxOpen.Load(); m > int64(b.maxConns) {
		res.checks = append(res.checks, fmt.Sprintf("driver held %d connections at once, cap %d", m, b.maxConns))
	}
	if n := b.drv.open.Load(); n != 0 {
		res.checks = append(res.checks, fmt.Sprintf("driver left %d connections open after its phases", n))
	}
	var roundReqs int
	for _, r := range runs {
		for _, sl := range r.slices {
			roundReqs += len(sl.closed) + len(sl.open)
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("driver: %d dials, at most %d connections open (cap %d = nproc); %.1f us of driver CPU per request in the rounds",
		b.drv.dials.Load(), b.drv.maxOpen.Load(), b.maxConns, float64(b.driverCPU.Microseconds())/float64(roundReqs)))
	return res
}

// traced1 derives one deployment's traced-run metrics and checks the
// trace's integrity: no span dropped, one server trace per client
// request with the spans its path needs, and self times that sum to the
// client-observed latency.
func (b *bench) traced1(res *runResult, r *depRun, rps float64, layer map[string]float64) {
	d := r.dep.name + "."
	t := r.traced
	for n, dr := range t.dump.Dropped {
		if dr != 0 {
			res.checks = append(res.checks, fmt.Sprintf("%s: node %d dropped %d spans", r.dep.name, n, dr))
		}
	}
	var reqs []tracing.TraceSummary
	for _, s := range tracing.Summarize(t.dump.Records) {
		if s.Name == "request" {
			reqs = append(reqs, s)
		}
	}
	async := asyncTime(t.dump.Records, reqs)
	n := float64(len(reqs))
	okN := okCount(t.samples)
	if len(reqs) != okN || okN == 0 {
		res.checks = append(res.checks, fmt.Sprintf("%s: %d server request traces for %d verified client requests",
			r.dep.name, len(reqs), okN))
	}
	paths, bad := checkShapes(t.dump.Records, reqs, t.after.Stats, t.before.Stats)
	res.notes = append(res.notes, fmt.Sprintf("%s traced paths: %v", r.dep.name, paths))
	for _, m := range bad {
		res.checks = append(res.checks, r.dep.name+": "+m)
	}
	phase := map[string]float64{}
	var rootSum, selfSum float64
	for _, s := range reqs {
		rootSum += float64(s.Dur)
		for p, ns := range s.Phases {
			phase[p] += float64(ns)
			selfSum += float64(ns)
		}
	}
	us := func(p string) float64 { return ratio(phase[p], n) / 1e3 }
	var client float64
	for _, s := range t.samples {
		client += float64(s.done - s.sent)
	}
	clientUs := ratio(client, float64(len(t.samples))) / 1e3
	rootUs, selfUs, asyncUs := ratio(rootSum, n)/1e3, ratio(selfSum, n)/1e3, ratio(float64(async), n)/1e3
	httpUs := clientUs - rootUs
	layer[d+"edge.accept_us"] = us(tracing.PhaseAccept)
	layer[d+"edge.reply_us"] = us(tracing.PhaseReply)
	layer[d+"edge.http_us"] = httpUs
	layer[d+"node.dispatch_us"] = us(tracing.PhaseDispatc)
	layer[d+"transport.net_us"] = us(tracing.PhaseNet)
	layer[d+"transport.stall_us"] = us(tracing.PhaseStall)
	layer[d+"transport.copy_us"] = us(tracing.PhaseCopy)
	layer[d+"store.disk_us"] = us(tracing.PhaseDisk)
	layer[d+"tracing.unattributed_us"] = us(tracing.PhaseOther)
	layer[d+"tracing.async_us"] = asyncUs
	tracedRPS := float64(okN) / t.elapsed.Seconds()
	layer[d+"tracing.overhead_pct"] = 100 * (ratio(rps, tracedRPS) - 1)
	gap := ratio(math.Abs(httpUs+selfUs-asyncUs-clientUs), clientUs)
	res.notes = append(res.notes, fmt.Sprintf(
		"%s traced: client %.1f us = edge.http %.1f + phase self times %.1f - async %.1f; gap %.2f%% of client latency, band %.0f%%",
		r.dep.name, clientUs, httpUs, selfUs, asyncUs, 100*gap, 100*integrityBand))
	if httpUs < 0 || gap > integrityBand || clientUs == 0 {
		res.checks = append(res.checks, fmt.Sprintf("%s: traced per-layer times do not sum to the client latency within %.0f%%",
			r.dep.name, 100*integrityBand))
	}

	// Registry, traced run: per-request rates over the traced loop,
	// fault counters over the whole life of the traced cluster.
	diff := t.after.Registry.Diff(t.before.Registry)
	life := t.after.Registry
	reqN := float64(okN)
	if r.dep.via {
		layer[d+"via.sends_per_req"] = ratio(float64(family(diff, "via_sends_posted_total")), reqN)
		layer[d+"via.rmw_per_req"] = ratio(float64(family(diff, "via_rmw_total")), reqN)
		layer[d+"via.send_latency_p50_us"] = mergeHist(diff, "via_send_latency_ns").Quantile(0.5) / 1e3
	}
	layer[d+"transport.retries"] = float64(family(life, "press_retries_total"))
	layer[d+"health.failovers"] = float64(family(life, "press_failovers_total"))
	layer[d+"directory.purged"] = float64(family(life, "press_dir_purged_total"))
	layer[d+"transport.reconnects"] = float64(family(life, "press_reconnects_total"))
}

// asyncTime sums, over the given request traces, the time each span
// runs outside its parent's interval. Summarize's self times count that
// time twice, in the span and in the self time of the ancestor whose
// interval still covers it: the reply a remote node hands to its send
// thread runs on after serve-remote has ended, inside the forward span.
func asyncTime(recs []tracing.SpanRecord, reqs []tracing.TraceSummary) int64 {
	want := make(map[tracing.TraceID]bool, len(reqs))
	for _, s := range reqs {
		want[s.Trace] = true
	}
	type iv struct{ start, end int64 }
	spans := map[tracing.SpanID]iv{}
	for _, r := range recs {
		if want[r.Trace] {
			spans[r.Span] = iv{r.Start, r.Start + r.Dur}
		}
	}
	var out int64
	for _, r := range recs {
		p, ok := spans[r.Parent]
		if !want[r.Trace] || !ok {
			continue
		}
		start, end := r.Start, r.Start+r.Dur
		inside := min(end, p.end) - max(start, p.start)
		if inside < 0 {
			inside = 0
		}
		out += end - start - inside
	}
	return out
}

// counters accumulates one deployment's activity over its slices.
type counters struct {
	ok, wall, mallocs, bytes, gcs float64
	cpu                           time.Duration

	reqs, forwarded, disk, dirMsgs, msgs, fileBytes, copied, stalls float64
}

// addClosed adds one closed loop's server-process runtime counters.
func (c *counters) addClosed(sl slice, ok float64) {
	c.ok += ok
	c.wall += sl.mid.at.Sub(sl.before.at).Seconds()
	c.cpu += sl.mid.cpu - sl.before.cpu
	c.mallocs += float64(sl.mid.Mallocs - sl.before.Mallocs)
	c.bytes += float64(sl.mid.TotalAlloc - sl.before.TotalAlloc)
	c.gcs += float64(sl.mid.NumGC - sl.before.NumGC)
}

// addStats adds the Cluster.Stats activity between two snapshots.
func (c *counters) addStats(st, st0 server.Stats) {
	c.reqs += float64(st.Nodes.Requests - st0.Nodes.Requests)
	c.forwarded += float64(st.Nodes.Forwarded - st0.Nodes.Forwarded)
	c.disk += float64(st.Nodes.DiskReads - st0.Nodes.DiskReads)
	c.copied += float64(st.CopiedBytes - st0.CopiedBytes)
	c.stalls += float64(st.CreditStalls - st0.CreditStalls)
	for t := core.MsgType(0); t < core.NumMsgTypes; t++ {
		n := float64(st.Msgs.Count[t] - st0.Msgs.Count[t])
		c.msgs += n
		switch t {
		case core.MsgCaching, core.MsgDirLookup, core.MsgDirReply, core.MsgDirInval, core.MsgDirSync:
			c.dirMsgs += n
		case core.MsgFile:
			c.fileBytes += float64(st.Msgs.Bytes[t] - st0.Msgs.Bytes[t])
		}
	}
}

// ratio is a/b, or 0 when nothing was counted (a run whose requests all
// failed still prints its JSON line, with correct false).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func join(v []float64, format string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// family sums a counter family over all its label sets.
func family(s metrics.Snapshot, name string) int64 {
	var sum int64
	for k, v := range s.Counters {
		if f, _ := metrics.Family(k); f == name {
			sum += v
		}
	}
	return sum
}

// mergeHist sums a histogram family over all its label sets.
func mergeHist(s metrics.Snapshot, name string) metrics.HistogramSnapshot {
	var out metrics.HistogramSnapshot
	buckets := map[int]int64{}
	first := true
	for k, h := range s.Histograms {
		if f, _ := metrics.Family(k); f != name || h.Count == 0 {
			continue
		}
		out.Count += h.Count
		out.Sum += h.Sum
		if first || h.Min < out.Min {
			out.Min = h.Min
		}
		if h.Max > out.Max {
			out.Max = h.Max
		}
		first = false
		for _, bk := range h.Buckets {
			buckets[bk.Index] += bk.Count
		}
	}
	for idx, c := range buckets {
		out.Buckets = append(out.Buckets, metrics.Bucket{Index: idx, Count: c})
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Index < out.Buckets[j].Index })
	return out
}

func okCount(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok {
			n++
		}
	}
	return n
}

// latencies returns the samples' latencies from due time, sorted; a
// failed request counts as the request timeout, over every limit.
func latencies(ss []sample) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.latency()
		if !s.ok && out[i] < int64(requestTimeout) {
			out[i] = int64(requestTimeout)
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile; 0 for no values.
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}

// median returns the middle value (upper middle for an even count); 0
// for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// report prints every metric by name with its unit, then the notes and
// any failed check.
func (r *runResult) report(w io.Writer, workload string) {
	fmt.Fprintf(w, "== %s: %d requests attempted, %d failed\n", workload, r.attempted, r.failed)
	for _, m := range r.endToEnd {
		fmt.Fprintf(w, "%-44s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.perLayer {
		fmt.Fprintf(w, "%-44s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
}
