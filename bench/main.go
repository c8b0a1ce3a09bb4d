// Command bench is the repository's yardstick: it builds the real
// origin + proxy stack in-process, replays a seed-generated request log
// through it from two closed-loop client connections, verifies every
// response, and prints end-to-end metrics (untraced run) or the per-layer
// ledger (traced run). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run once: hit_small, churn_piggy, churn_plain or disk_large")
		seed    = flag.Int64("seed", 1, "seed of the generated site and request log")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics instead of the end-to-end ones")
		out     = flag.String("out", ".bench_build/out", "directory for span files, result sets and temporary files")
		all     = flag.Bool("all", false, "run every workload, untraced and traced, each in its own process, and write a result set to -out")
		repeat  = flag.Int("repeat", 3, "with -all: untraced runs per workload, on consecutive seeds")
		compare = flag.Bool("compare", false, "compare two result sets: bench -compare A.json B.json")
		spec    = flag.String("benchmark", "BENCHMARK.json", "with -compare and -all: the file holding the regression bounds")
		spinCPU = flag.Int("spin", -1, "internal: be the spinner that keeps this CPU awake (see awake.go)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	switch {
	case *spinCPU >= 0:
		spin(*spinCPU)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare A.json B.json")
		}
		os.Exit(compareSets(*spec, flag.Arg(0), flag.Arg(1)))
	case *all:
		os.Exit(runAll(*seed, *seconds, *repeat, *out, *spec))
	}

	w := workloadByName(*name)
	if w == nil {
		fatal(2, "unknown workload %q", *name)
	}
	stop := keepAwake()
	res, err := run(runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out})
	stop()
	if err != nil {
		fatal(1, "%s: %v", w.name, err)
	}
	printMetrics(w.name, res)
	for _, b := range res.broken {
		fmt.Fprintf(os.Stderr, "bench: %s does not do what it says: %s\n", w.name, b)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// printMetrics lists every metric of a run by name, with its unit.
func printMetrics(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d attempted, %d failed\n", workload, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
