package main

import (
	"fmt"
	"strings"

	"press/trace"
)

// workload is one traffic mix: a file population, a per-node cache
// size that places its working set against the cluster's combined
// cache, and the fixed open-loop arrival rate. Every mix uses Zipf
// α 0.8 popularity and uniform entry nodes.
type workload struct {
	name       string
	spec       trace.Spec // Seed and NumRequests are set per run
	cacheBytes int64      // per node
	rate       float64    // open-loop arrivals per second
}

// workloads are the runnable mixes; README.md gives the reasons for
// each, and why large-fwd is not in BENCHMARK.json.

var workloads = []workload{
	{
		// Per-message cost: ~75% forwarded, no disk.
		name: "small-fwd",
		spec: trace.Spec{NumFiles: 1000, AvgFileKB: 8, AvgReqKB: 6, Alpha: 0.8},
		// 8 MB of files against 4 × 4 MB of cache.
		cacheBytes: 4 << 20,
		rate:       1500,
	},
	{
		// Bulk transfer: chunking, copies, zero-copy, credits.
		name: "large-fwd",
		spec: trace.Spec{NumFiles: 400, AvgFileKB: 64, AvgReqKB: 48, Alpha: 0.8},
		// 25 MB of files against 4 × 16 MB of cache.
		cacheBytes: 16 << 20,
		rate:       500,
	},
	{
		// The miss path: half from disk, LRU eviction, directory updates.
		name: "spill",
		spec: trace.Spec{NumFiles: 4000, AvgFileKB: 8, AvgReqKB: 6, Alpha: 0.8},
		// 31 MB of files against 4 × 1 MB of cache.
		cacheBytes: 1 << 20,
		rate:       1000,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(names, ", "))
}

// deployment is one transport configuration of the cluster under test.
type deployment struct {
	name      string
	transport string // pressbench-server -transport
	version   string // pressbench-server -version
	via       bool
}

// deployments bracket the paper's Table 3: kernel TCP, VIA with
// regular messages only (V0), and VIA with remote memory writes and
// zero-copy transfers (V5).
var deployments = []deployment{
	{name: "tcp", transport: "tcp", version: "V0"},
	{name: "via_v0", transport: "via", version: "V0", via: true},
	{name: "via_v5", transport: "via", version: "V5", via: true},
}
