// Command perfbench is the repository benchmark. It runs one workload
// (bulk, video or fleet) against the public entry points for a fixed
// number of seconds, checks every output against the reference digests
// recorded for the seed, and prints one JSON result line.
//
// With -trace 0 it reports the end-to-end metrics of untraced passes.
// With -trace 1 it alternates an untraced pass with a traced pass that
// assembles the same sessions from the public constructors, times the
// cc and steering seams from outside, and reports per-layer metrics;
// the traced outputs must equal the untraced ones.
//
// Build and run it through run.py, which builds from source first:
//
//	python3 perfbench/run.py --workload bulk --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: bulk, video or fleet")
	seed := flag.Int64("seed", 1, "benchmark seed; per-session seeds derive from it")
	seconds := flag.Float64("seconds", 25, "keep starting measured passes until this many seconds have passed")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	refPath := flag.String("reference", "perfbench/reference.json", "reference digests by workload and seed")
	record := flag.String("record", "", "seed range LO-HI: compute this workload's reference digests, merge them into -reference and exit")
	cpuprofile := flag.String("cpuprofile", "", "with -trace 1: write a CPU profile of one traced pass to this file")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || flag.NArg() > 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload bulk|video|fleet -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, workers: runtime.NumCPU()}
	if err := b.run(*traceMode == 1, *refPath, *record, *cpuprofile); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func (b *bench) run(traced bool, refPath, record, cpuprofile string) error {
	if record != "" {
		return b.record(refPath, record)
	}
	want, err := loadReference(refPath, b.w.name, b.seed)
	if err != nil {
		return err
	}
	if want == nil {
		fmt.Fprintf(os.Stderr, "perfbench: no reference recorded for %s seed %d; checking passes against the first\n", b.w.name, b.seed)
	}
	b.chk.want = want

	var ms map[string]metric
	if traced {
		ms, err = b.tracedRun(cpuprofile)
	} else {
		ms, err = b.untracedRun()
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(result{
		Correct:   b.chk.failed == 0,
		Attempted: b.chk.attempted,
		Failed:    b.chk.failed,
		Metrics:   ms,
	})
}
