// Command benchgate compares two `go test -bench -benchmem` outputs and
// fails when the new run's per-operation counts exceed the baseline's — a
// dependency-free stand-in for benchstat's compare mode, built for CI.
//
// Both inputs are ordinary benchmark logs (the benchstat file format):
//
//	BenchmarkWriteResponse/plain-8   2242028   534.6 ns/op   4 B/op   1 allocs/op
//
// Benchmarks present in only one file are reported but never fail the
// gate, so adding or retiring benchmarks doesn't break CI. allocs/op is
// gated absolutely (-allocslack extra allocations allowed) because tiny
// counts make percentages meaningless. The custom writes/op metric (write
// syscalls per request, emitted by the wire benchmarks via b.ReportMetric)
// is likewise gated absolutely (-writeslack): a fresh hit must stay at one
// writev per response, and a fractional threshold on a value of 1.0 would
// hide a doubling.
//
// Time is not gated here: ns/op from another machine, or another hour on a
// shared runner, is not a baseline. Time regressions are the job of
// `bench/run.sh -compare`, which runs parent and change side by side and
// knows its own spread.
//
// Usage:
//
//	benchgate -baseline BENCH_baseline.txt -new bench_new.txt [-allocslack 1] [-writeslack 0.25]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	name      string
	allocs    float64
	writesOp  float64
	hasMem    bool
	hasWrites bool
}

// parseFile extracts benchmark result lines. Repeated runs of the same
// benchmark (e.g. -count=N) are averaged.
func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sums := make(map[string]result)
	counts := make(map[string]int)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		r, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		s := sums[r.name]
		s.name = r.name
		s.allocs += r.allocs
		s.writesOp += r.writesOp
		s.hasMem = s.hasMem || r.hasMem
		s.hasWrites = s.hasWrites || r.hasWrites
		sums[r.name] = s
		counts[r.name]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, s := range sums {
		n := float64(counts[name])
		s.allocs /= n
		s.writesOp /= n
		sums[name] = s
	}
	return sums, nil
}

func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	r := result{name: trimProcSuffix(fields[0])}
	ok := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			ok = true // what makes this a result line
		case "allocs/op":
			r.allocs = v
			r.hasMem = true
		case "writes/op":
			r.writesOp = v
			r.hasWrites = true
		}
	}
	return r, ok
}

// trimProcSuffix drops the trailing -GOMAXPROCS so baselines recorded on
// machines with different core counts still line up.
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func main() {
	log.SetFlags(0)
	baselinePath := flag.String("baseline", "BENCH_baseline.txt", "baseline benchmark log")
	newPath := flag.String("new", "", "new benchmark log to compare")
	allocSlack := flag.Float64("allocslack", 1, "allowed absolute allocs/op increase")
	writeSlack := flag.Float64("writeslack", 0.25, "allowed absolute writes/op (write syscalls per request) increase")
	flag.Parse()
	if *newPath == "" {
		log.Fatal("benchgate: -new is required")
	}
	base, err := parseFile(*baselinePath)
	if err != nil {
		log.Fatalf("benchgate: %v", err)
	}
	cur, err := parseFile(*newPath)
	if err != nil {
		log.Fatalf("benchgate: %v", err)
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	failures := 0
	fmt.Printf("%-52s %14s %14s\n", "benchmark", "baseline", "new")
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Printf("%-52s %14s %14s\n", name, "", "absent")
			continue
		}
		if b.hasMem && c.hasMem {
			mark := ""
			if c.allocs > b.allocs+*allocSlack {
				mark = "  REGRESSION"
				failures++
			}
			fmt.Printf("%-52s %14.1f %14.1f allocs/op%s\n", name, b.allocs, c.allocs, mark)
		}
		if b.hasWrites && c.hasWrites {
			mark := ""
			if c.writesOp > b.writesOp+*writeSlack {
				mark = "  REGRESSION"
				failures++
			}
			fmt.Printf("%-52s %14.2f %14.2f writes/op%s\n", name, b.writesOp, c.writesOp, mark)
		}
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Printf("%-52s %14s %14s\n", name, "(new)", "")
		}
	}
	if failures > 0 {
		log.Fatalf("benchgate: %d regression(s) beyond +%g allocs/op or +%g writes/op",
			failures, *allocSlack, *writeSlack)
	}
	fmt.Println("benchgate: OK")
}
