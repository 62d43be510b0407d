// Command pressbench is the repository's end-to-end benchmark. It drives
// the real stack — HTTP client → PRESS node → TCP or VIA → reply — on
// three traffic mixes and three deployments (kernel TCP, VIA V0, VIA
// V5), with the cluster in a separate server process so CPU time,
// allocations and RSS are the server's alone.
//
// Usage, from the root of a checkout (perfbench/run.sh builds and runs):
//
//	pressbench -workload small-fwd|large-fwd|spill|all -seed N -seconds S -trace 0|1
//
// Per deployment a run spawns the server process three times (setup),
// warms caches up, runs a closed loop and then an open loop. With
// -trace 1 it adds a separate traced run of each deployment, the layer
// probes, and the per-layer metrics, and writes the server's and the
// benchmark's spans under .bench_build/traces. Every metric is printed
// by name with its unit on standard error; the last line of standard
// output is one JSON object with the end-to-end metrics (-trace 0) or
// the per-layer metrics (-trace 1). The exit status is 1 when a reply
// was wrong or missing or a check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pressbench: ")
	root := flag.String("root", ".", "checkout root; binaries, scratch files and traces live under .bench_build")
	name := flag.String("workload", "", "small-fwd, large-fwd, spill, or all")
	seed := flag.Int64("seed", 1, "workload seed: file population, request stream, entry nodes, arrivals")
	seconds := flag.Int("seconds", defaultSeconds, fmt.Sprintf(
		"measured seconds per workload, split evenly over the deployments, %.0f%% closed and %.0f%% open loop",
		100*closedShare, 100*(1-closedShare)))
	traced := flag.Int("trace", 0, "1 adds the traced run, the layer probes and the per-layer metrics")
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var wls []workload
	if *name == "all" {
		wls = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			log.Fatal(err)
		}
		wls = []workload{w}
	}
	// The driver keeps every file's content and every sample; fewer
	// collections mean fewer pauses in the timed client.
	debug.SetGCPercent(400)
	bin, err := filepath.Abs(filepath.Join(*root, ".bench_build", "bin"))
	if err != nil {
		log.Fatal(err)
	}
	out := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range wls {
		b := &bench{
			w: w, seed: *seed, seconds: *seconds, traced: *traced == 1,
			binDir: bin, outDir: filepath.Join(*root, ".bench_build"),
			maxConns: runtime.NumCPU(),
		}
		r, err := b.run()
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		r.report(os.Stderr, w.name)
		out.add(r, w.name, len(wls) > 1, b.traced)
	}
	enc, err := json.Marshal(out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(enc))
	if !out.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *result) add(r *runResult, workload string, prefix, perLayer bool) {
	o.Correct = o.Correct && r.correct()
	o.Attempted += r.attempted
	o.Failed += r.failed
	ms := r.endToEnd
	if perLayer {
		ms = r.perLayer
	}
	for _, m := range ms {
		key := m.name
		if prefix {
			key = workload + "/" + key
		}
		o.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
	}
}
