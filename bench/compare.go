package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the tools read.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (benchmarkSpec, error) {
	var s benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// resultSet is what -all writes and -compare reads: every run made, and the
// conditions they were made under.
type resultSet struct {
	Env  setEnv   `json:"env"`
	Runs []setRun `json:"runs"`
}

type setEnv struct {
	NProc         int                `json:"nproc"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	Go            string             `json:"go"`
	Commit        string             `json:"commit"`
	Seed          int64              `json:"seed"`
	Seconds       float64            `json:"seconds"`
	Clients       int                `json:"clients"`
	Link          string             `json:"link"`
	OriginDelayMs map[string]float64 `json:"origin_delay_ms"`
	Claim         *string            `json:"claim"`
}

type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// quartiles are those of Python's statistics.quantiles(v, n=4): the spread of
// a metric is (q3-q1)/median. v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median, 0 for fewer
// than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

// values collects one metric of one workload's untraced runs.
func (rs *resultSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
			out = append(out, m.Value)
		}
	}
	return out
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// compareSets reports, per workload and end-to-end metric, both medians, how
// much worse B is than A, and the bound. It returns 1 when any metric breaches
// its bound or B has failed operations.
func compareSets(specPath, pathA, pathB string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(2, "%v", err)
	}
	a, err := readSet(pathA)
	if err != nil {
		fatal(2, "%v", err)
	}
	b, err := readSet(pathB)
	if err != nil {
		fatal(2, "%v", err)
	}
	code := 0
	for _, r := range b.Runs {
		if r.Failed > 0 || !r.Correct {
			fmt.Printf("%s seed %d trace %d in %s: %d of %d operations failed, correct=%v\n",
				r.Workload, r.Seed, r.Trace, pathB, r.Failed, r.Attempted, r.Correct)
			code = 1
		}
	}
	fmt.Printf("%-12s %-28s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "worse", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-12s %-28s missing from one set\n", w.Name, m.Name)
				code = 1
				continue
			}
			ma, mb := medianFloat(va), medianFloat(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			verdict := "unchanged"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = 1
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Printf("%-12s %-28s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				w.Name, m.Name+" ["+m.Unit+"]", ma, mb, 100*worse, 100*sp, 100*m.Bound, verdict)
		}
	}
	return code
}

// runAll runs every workload in a process of its own — repeat untraced runs
// on consecutive seeds and one traced run — prints both tables, checks the
// paper's claim between the churn twins, and writes the result set.
func runAll(seed int64, seconds float64, repeat int, outDir, specPath string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	rs := resultSet{Env: setEnv{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Seed: seed, Seconds: seconds, Clients: nClients,
		Link: "loopback, one process", OriginDelayMs: make(map[string]float64),
	}}
	code := 0
	child := func(w *workload, s int64, trace int) {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		run := setRun{Workload: w.name, Seed: s, Trace: trace}
		if jerr := json.Unmarshal(lines[len(lines)-1], &run.result); err != nil || jerr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: %v %v\n", w.name, s, trace, err, jerr)
			code = 1
		}
		rs.Runs = append(rs.Runs, run)
	}
	for i := range workloads {
		w := &workloads[i]
		rs.Env.OriginDelayMs[w.name] = float64(w.delay.Microseconds()) / 1e3
		for r := 0; r < repeat; r++ {
			child(w, seed+int64(r), 0)
		}
		child(w, seed, 1)
	}

	printTable(&rs, 0, "end-to-end (untraced runs; median of the repeats, spread = IQR/median)")
	printTable(&rs, 1, "per layer (traced run)")

	// ROADMAP 1(c): piggybacking must beat the baseline proxy, outside the
	// spread, on what it is for — origin requests absorbed and user-perceived
	// latency. Staleness is reported, not required: at equal Δ a freshen
	// turns a validation (never stale) into an unvalidated hit.
	for _, name := range []string{"origin_offload_ratio", "throughput_rps", "fresh_ratio"} {
		pig, plain := rs.values("churn_piggy", name), rs.values("churn_plain", name)
		if len(pig) == 0 || len(plain) == 0 {
			continue
		}
		gap := medianFloat(pig) - medianFloat(plain)
		noise := max(spread(pig)*medianFloat(pig), spread(plain)*medianFloat(plain))
		fmt.Printf("churn_piggy - churn_plain, %s: %+.4f (spread %.4f)\n", name, gap, noise)
		if gap <= noise && name != "fresh_ratio" {
			fmt.Printf("  piggybacking does not beat the baseline proxy on %s\n", name)
			code = 1
		}
	}

	b, err := json.MarshalIndent(&rs, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "results.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fatal(1, "%v", err)
	}
	if spec, err := loadSpec(specPath); err == nil {
		for _, m := range spec.EndToEnd {
			for _, w := range spec.Workloads {
				if sp := spread(rs.values(w.Name, m.Name)); sp > m.Bound {
					fmt.Printf("note: %s %s spread %.1f%% exceeds its bound %.1f%%\n", w.Name, m.Name, 100*sp, 100*m.Bound)
				}
			}
		}
	}
	return code
}

// printTable prints one row per metric, one column per workload.
func printTable(rs *resultSet, trace int, title string) {
	units := make(map[string]string)
	for _, r := range rs.Runs {
		if r.Trace == trace {
			for n, m := range r.Metrics {
				units[n] = m.Unit
			}
		}
	}
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\n%s\n%-36s", title, "metric")
	for i := range workloads {
		fmt.Printf(" %22s", workloads[i].name)
	}
	fmt.Println()
	for _, n := range names {
		fmt.Printf("%-36s", n+" ["+units[n]+"]")
		for i := range workloads {
			var v []float64
			for _, r := range rs.Runs {
				if m, ok := r.Metrics[n]; ok && r.Workload == workloads[i].name && r.Trace == trace {
					v = append(v, m.Value)
				}
			}
			cell := fmt.Sprintf("%.4g", medianFloat(v))
			if len(v) > 1 {
				cell += fmt.Sprintf(" ±%.1f%%", 100*spread(v))
			}
			fmt.Printf(" %22s", cell)
		}
		fmt.Println()
	}
}

// commit names the source the numbers belong to, when git can tell.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
