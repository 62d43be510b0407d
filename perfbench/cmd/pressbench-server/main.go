// Command pressbench-server is the benchmark's server process: a thin
// wrapper around server.Start that runs one PRESS cluster in its own OS
// process, so the CPU time, allocations and RSS the driver reads from
// it belong to the server alone.
//
// It loads the file population from a trace file, starts the cluster,
// prints one JSON line with the nodes' HTTP addresses, then answers
// one-line commands on standard input with one JSON line each:
//
//	snap    counters: Cluster.Stats, runtime.MemStats, registry snapshot
//	mark    remember every trace seen so far; later span dumps skip them
//	spans   span records committed since the mark, plus per-node drops
//	close   time Cluster.Close and exit
//
// End of input also closes the cluster.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"press/metrics"
	"press/netmodel"
	"press/server"
	"press/trace"
	"press/tracing"
)

// Snap is the reply to "snap".
type Snap struct {
	Stats      server.Stats
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint32
	Registry   metrics.Snapshot
}

// Spans is the reply to "spans".
type Spans struct {
	Records []tracing.SpanRecord
	Dropped []int64
}

// Mark is the reply to "mark": the tracer clock at the mark, so the
// driver can align its own spans with the server's.
type Mark struct {
	ClockNs int64
}

// Closed is the reply to "close".
type Closed struct {
	TeardownS float64
}

// The cluster is the default configuration at this size and with the
// disk delay of the repository's real-stack benchmarks; the driver
// picks only the transport, the per-node cache size and whether tracing
// is on.
const (
	nodes     = 4
	diskDelay = 200 * time.Microsecond
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pressbench-server: ")
	tracePath := flag.String("trace", "", "file population in the binary trace format")
	transport := flag.String("transport", "tcp", "intra-cluster transport: tcp or via")
	version := flag.String("version", "V0", "VIA version (Table 3)")
	cacheBytes := flag.Int64("cache", 0, "per-node cache bytes")
	spans := flag.Int("spans", 0, "spans the cluster must hold, shared evenly by the nodes' rings; >0 turns tracing and metrics on")
	flag.Parse()
	if err := run(*tracePath, *transport, *version, *cacheBytes, *spans); err != nil {
		log.Fatal(err)
	}
}

func run(tracePath, transport, version string, cacheBytes int64, spans int) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	var tr trace.Trace
	_, err = tr.ReadFrom(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return fmt.Errorf("read %s: %w", tracePath, err)
	}
	ver, err := netmodel.VersionByName(version)
	if err != nil {
		return err
	}
	cfg := server.Config{
		Nodes: nodes, Trace: &tr, Version: ver,
		CacheBytes: cacheBytes, DiskDelay: diskDelay,
	}
	switch transport {
	case "tcp":
		cfg.Transport = server.TransportTCP
	case "via":
		cfg.Transport = server.TransportVIA
	default:
		return fmt.Errorf("unknown transport %q", transport)
	}
	if spans > 0 {
		cfg.Metrics = metrics.NewRegistry()
		cfg.Tracer = tracing.New(tracing.WithSampleRate(1), tracing.WithCapacity((spans+nodes-1)/nodes),
			tracing.WithMetrics(cfg.Metrics))
	}
	cl, err := server.Start(cfg)
	if err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(struct{ Addrs []string }{cl.Addrs()}); err != nil {
		cl.Close()
		return err
	}

	// markNode is a collector index no cluster node uses; the mark span
	// lands there and stamps the tracer clock.
	markNode := server.MaxNodes
	seen := map[tracing.TraceID]bool{}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var reply interface{}
		switch cmd := in.Text(); cmd {
		case "snap":
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			reply = Snap{
				Stats: cl.Stats(), Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc,
				NumGC: ms.NumGC, Registry: cfg.Metrics.Snapshot(),
			}
		case "mark":
			for _, r := range cfg.Tracer.Records() {
				seen[r.Trace] = true
			}
			sp := cfg.Tracer.Collector(markNode).StartTrace("bench-mark")
			sp.End()
			var m Mark
			for _, r := range cfg.Tracer.Collector(markNode).Records() {
				m.ClockNs = r.Start
			}
			reply = m
		case "spans":
			var s Spans
			for _, r := range cfg.Tracer.Records() {
				if !seen[r.Trace] && r.Node != markNode {
					s.Records = append(s.Records, r)
				}
			}
			for i := 0; i < nodes; i++ {
				s.Dropped = append(s.Dropped, cfg.Tracer.Collector(i).Dropped())
			}
			reply = s
		case "close":
			start := time.Now()
			cl.Close()
			return out.Encode(Closed{TeardownS: time.Since(start).Seconds()})
		default:
			reply = struct{ Error string }{"unknown command " + cmd}
		}
		if err := out.Encode(reply); err != nil {
			cl.Close()
			return err
		}
	}
	cl.Close()
	return in.Err()
}
