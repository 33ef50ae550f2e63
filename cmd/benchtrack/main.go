// Command benchtrack keeps the checked-in benchmark trajectory
// (BENCH_*.json). Run it from the repository root:
//
//	go run ./cmd/benchtrack record [-dir d]     # append one entry per benchmark
//	go run ./cmd/benchtrack gate [-dir d]       # fail on a regression
//	go run ./cmd/benchtrack perfbench [-dir d]  # append the repository benchmark
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// gate passes when the best of gateRuns runs is within factor × the
// median of the latest recorded entry of its benchmark. Each run uses
// recordBenchtime, the benchtime every entry is recorded at, so that
// both figures are measured alike.
type gate struct {
	metric string
	higher bool // higher is better: fail below factor × baseline, else above
	factor float64
}

// row is one recorded benchmark: its package, trajectory file and gate.
type row struct {
	name, pkg, file string
	gate            *gate
}

var table = []row{
	{"BenchmarkSweep", "./internal/sweep/", "BENCH_sweep.json", &gate{"rows_per_sec", true, 0.75}},
	{"BenchmarkSweepEngine", "./internal/sweep/", "BENCH_sweep.json", nil},
	{"BenchmarkRunStream", "./internal/memsim/", "BENCH_hotpath.json", nil},
	{"BenchmarkEngineWrite", "./internal/memsim/", "BENCH_hotpath.json", nil},
	// The serve and planner gates are cliff detectors, loose for mux noise.
	{"BenchmarkServeMixed", "./internal/serve/", "BENCH_serve.json", &gate{"ns_per_op", false, 2.0}},
	{"BenchmarkRouterMixed", "./internal/router/", "BENCH_serve.json", nil},
	{"BenchmarkFit", "./internal/calibrate/", "BENCH_fit.json", nil},
	{"BenchmarkFitLaw", "./internal/xfer/", "BENCH_fit.json", nil},
	{"BenchmarkCollectivePlan", "./internal/collective/", "BENCH_collective.json", &gate{"ns_per_op", false, 2.0}},
	// Losing the words laws costs this sweep two orders of magnitude.
	{"BenchmarkCollectiveSweep", "./internal/sweep/", "BENCH_collective.json", &gate{"rows_per_sec", true, 0.75}},
	{"BenchmarkCollectiveSweepEngine", "./internal/sweep/", "BENCH_collective.json", nil},
	{"BenchmarkBatchShift", "./internal/netsim/", "BENCH_collective.json", nil},
}

const recordCount, recordBenchtime, gateRuns, perfbenchRepeat, perfbenchSeconds = 3, "1s", 3, 3, "25"

// entry is one recording of one benchmark. Metrics holds per metric the
// median, min and max of N go test samples, or perfbench's median, q1, q3.
// Host is nil only on entries recorded before hosts were stamped.
// Benchtime is go test's -benchtime of the samples, kept as provenance;
// entries recorded before it was stamped have none and were recorded at
// recordBenchtime too.
type entry struct {
	Name      string                        `json:"name"`
	Date      string                        `json:"date"`
	Commit    string                        `json:"commit"`
	Dirty     bool                          `json:"dirty"`
	Host      *host                         `json:"host,omitempty"`
	Benchtime string                        `json:"benchtime,omitempty"`
	N         int                           `json:"n"`
	Metrics   map[string]map[string]float64 `json:"metrics"`
}

// host names the machine an entry was measured on, as go test's
// benchmark header does: figures from different hosts do not compare.
type host struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// runtimeHost describes the machine benchtrack itself runs on; the
// benchmark it starts inherits the same GOMAXPROCS. The CPU name is the
// one go test prints, read the same way (Linux only; empty elsewhere).
func runtimeHost() *host {
	h := &host{GOMAXPROCS: runtime.GOMAXPROCS(0), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func main() {
	cmds := map[string]func(dir string) error{"perfbench": recordPerfbench,
		"record": func(dir string) error { return record(table, dir, goBench) },
		"gate": func(dir string) error {
			return runGate(table, dir, os.Getenv("ALLOW_BENCH_REGRESSION") == "1", goBench, os.Stdout)
		}}
	if len(os.Args) < 2 || cmds[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: benchtrack record|gate|perfbench [-dir d]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("benchtrack "+os.Args[1], flag.ExitOnError)
	dir := fs.String("dir", ".", "directory of the BENCH_*.json trajectory files")
	fs.Parse(os.Args[2:]) // ExitOnError: never returns an error
	if err := cmds[os.Args[1]](*dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchtrack:", err)
		os.Exit(1)
	}
}

// goBench runs the rows' benchmarks in one go test, which drops repeated
// packages; -p 1 keeps it from building one package while another's run.
func goBench(benchtime string, count int, rows ...row) (string, error) {
	args := []string{"test", "-p", "1", "-run", "^$", "-benchtime", benchtime, "-count", strconv.Itoa(count), "-benchmem"}
	var names []string
	for _, r := range rows {
		names, args = append(names, r.name), append(args, r.pkg)
	}
	return run("go", append(args, "-bench", "^("+strings.Join(names, "|")+")$")...)
}

// run runs a command and returns its stdout, echoing all output to stderr.
func run(name string, args ...string) (string, error) {
	var out bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = io.MultiWriter(&out, os.Stderr), os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s %s: %w", name, args[0], err)
	}
	return out.String(), nil
}

// parseBench reads go test -bench output into one entry per benchmark,
// in order of first appearance, stamped like st and with the host of its
// first sample: the goos, goarch and cpu header lines above it and the
// -GOMAXPROCS suffix of its name (none means 1). Names lose only that
// suffix; each "value unit" pair and the iteration count is a metric.
func parseBench(out string, st entry) []entry {
	names, samples, hosts := []string(nil), map[string]map[string][]float64{}, map[string]*host{}
	gomaxprocs := regexp.MustCompile(`-([0-9]+)$`)
	var hdr host
	for _, line := range strings.Split(out, "\n") {
		if k, v, ok := strings.Cut(line, ": "); ok {
			switch k {
			case "goos":
				hdr.GOOS = v
			case "goarch":
				hdr.GOARCH = v
			case "cpu":
				hdr.CPU = v
			}
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || !strings.Contains(line, " ns/op") {
			continue
		}
		name, procs := f[0], 1
		if m := gomaxprocs.FindStringSubmatchIndex(name); m != nil {
			procs, _ = strconv.Atoi(name[m[2]:m[3]]) // the pattern matched digits only
			name = name[:m[0]]
		}
		if samples[name] == nil {
			h := hdr
			h.GOMAXPROCS = procs
			names, samples[name], hosts[name] = append(names, name), map[string][]float64{}, &h
		}
		for f = slices.Insert(f, 2, "iterations"); len(f) > 2; f = f[2:] { // f[1] is a value, f[2] its unit
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				unit := strings.ReplaceAll(strings.Replace(f[2], "B/op", "bytes/op", 1), "/", "_per_")
				samples[name][unit] = append(samples[name][unit], v)
			}
		}
	}
	var entries []entry
	for _, name := range names {
		e := st
		e.Name, e.Host, e.Metrics = name, hosts[name], map[string]map[string]float64{}
		for metric, xs := range samples[name] {
			slices.Sort(xs)
			med := (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
			e.N, e.Metrics[metric] = len(xs), map[string]float64{"median": med, "min": xs[0], "max": xs[len(xs)-1]}
		}
		entries = append(entries, e)
	}
	return entries
}

// stamp dates an entry today at HEAD, dirty unless the tree is known clean.
func stamp() entry {
	e := entry{Date: time.Now().UTC().Format("2006-01-02"), Commit: "unknown", Dirty: true}
	commit, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if status, err2 := exec.Command("git", "status", "--porcelain").Output(); err == nil && err2 == nil {
		e.Commit, e.Dirty = strings.TrimSpace(string(commit)), len(bytes.TrimSpace(status)) > 0
	}
	return e
}

// record appends one entry per benchmark of rows, all run in one bench call.
func record(rows []row, dir string, bench func(string, int, ...row) (string, error)) error {
	st, err := stamp(), os.MkdirAll(dir, 0o755) // before minutes of benchmarking, not after
	if err != nil {
		return err
	}
	out, err := bench(recordBenchtime, recordCount, rows...)
	if err != nil {
		return err
	}
	st.Benchtime = recordBenchtime
	entries, added := parseBench(out, st), map[string][]entry{}
	for _, r := range rows {
		mine := slices.DeleteFunc(slices.Clone(entries), func(e entry) bool { return strings.SplitN(e.Name, "/", 2)[0] != r.name })
		if len(mine) == 0 {
			return fmt.Errorf("%s printed no benchmark results", r.name)
		}
		added[r.file] = append(added[r.file], mine...)
	}
	return appendEntries(dir, added)
}

// recordPerfbench runs the repository benchmark and appends its summary.
func recordPerfbench(dir string) error {
	st, err := stamp(), os.MkdirAll(dir, 0o755)
	if err != nil {
		return err
	}
	st.Host = runtimeHost()
	out, err := run("bash", "perfbench/run.sh", "--repeat", strconv.Itoa(perfbenchRepeat), "--seconds", perfbenchSeconds)
	if err != nil {
		return err
	}
	if entries := parsePerfbench(out, st); len(entries) > 0 {
		return appendEntries(dir, map[string][]entry{"BENCH_perfbench.json": entries})
	}
	return fmt.Errorf("perfbench printed no summary lines")
}

// parsePerfbench reads perfbench --repeat summary lines into one entry
// per workload. The spread, (q3-q1)/median, is NaN at median 0: not kept.
func parsePerfbench(out string, st entry) []entry {
	var entries []entry
	for _, line := range strings.Split(out, "\n") {
		var w, metric string
		var med, q1, q3 float64
		if _, err := fmt.Sscanf(line, "%s %s median %g q1 %g q3 %g", &w, &metric, &med, &q1, &q3); err != nil {
			continue
		}
		if len(entries) == 0 || entries[len(entries)-1].Name != "perfbench/"+w {
			e := st
			e.Name, e.N, e.Metrics = "perfbench/"+w, perfbenchRepeat, map[string]map[string]float64{}
			entries = append(entries, e)
		}
		entries[len(entries)-1].Metrics[metric] = map[string]float64{"median": med, "q1": q1, "q3": q3}
	}
	return entries
}

// readEntries reads a trajectory file; a missing file has no entries.
func readEntries(path string) (entries []entry, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	} else if err == nil {
		err = json.Unmarshal(data, &entries)
	}
	return entries, err
}

// appendEntries appends entries to each file in dir, one per line so that
// recordings diff, writing every temporary file before renaming any.
func appendEntries(dir string, added map[string][]entry) (err error) {
	for f, entries := range added {
		old, err := readEntries(filepath.Join(dir, f))
		var lines []string
		for _, e := range append(old, entries...) {
			line, err2 := json.Marshal(e)
			lines, err = append(lines, string(line)), errors.Join(err, err2)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		} else if err := os.WriteFile(filepath.Join(dir, f+".tmp"), []byte("[\n"+strings.Join(lines, ",\n")+"\n]\n"), 0o644); err != nil {
			return err
		}
	}
	for f := range added {
		err = errors.Join(err, os.Rename(filepath.Join(dir, f+".tmp"), filepath.Join(dir, f)))
	}
	return err
}

// runGate runs each gated row best of gateRuns, at recordBenchtime,
// against the latest entry's median. allow downgrades only a
// regression, never a missing baseline or a run that reports no metric.
func runGate(rows []row, dir string, allow bool, bench func(string, int, ...row) (string, error), log io.Writer) error {
	failed := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(log, "benchtrack gate: FAIL: "+format+"\n", args...)
		failed++
	}
next:
	for _, r := range rows {
		g := r.gate
		if g == nil {
			continue
		}
		entries, err := readEntries(filepath.Join(dir, r.file))
		base, ok := median(entries, r.name, g.metric)
		if !ok || base == 0 {
			fail("%v; record one with 'make bench-record'", errors.Join(err, fmt.Errorf("no %s %s baseline in %s", r.name, g.metric, r.file)))
			continue
		}
		var runs []float64
		for i := 1; i <= gateRuns; i++ {
			out, err := bench(recordBenchtime, 1, r)
			cur, ok := median(parseBench(out, entry{}), r.name, g.metric)
			if err != nil || !ok {
				fail("%v", errors.Join(err, fmt.Errorf("%s reported no %s", r.name, g.metric)))
				continue next
			}
			fmt.Fprintf(log, "%s run %d/%d: %.10g %s\n", r.name, i, gateRuns, cur, g.metric)
			runs = append(runs, cur)
		}
		best, ok := slices.Min(runs), slices.Min(runs) <= g.factor*base
		if g.higher {
			best, ok = slices.Max(runs), slices.Max(runs) >= g.factor*base
		}
		verdict := "ok"
		if !ok && allow {
			verdict = "REGRESSION, passing with a warning (ALLOW_BENCH_REGRESSION=1)"
		} else if !ok {
			verdict, failed = "FAIL", failed+1
		}
		fmt.Fprintf(log, "benchtrack gate: %s %s (best %.10g %s vs baseline %.10g, threshold %g%%)\n",
			r.name, verdict, best, g.metric, base, 100*g.factor)
	}
	if failed > 0 {
		return fmt.Errorf("gate: %d check(s) FAILED; if intentional, apply the 'bench-regression-ok' "+
			"PR label and re-record the baseline with 'make bench-record' in the same PR", failed)
	}
	fmt.Fprintln(log, "benchtrack gate: PASS")
	return nil
}

// median returns the metric's median in the last entry named name.
func median(entries []entry, name, metric string) (v float64, ok bool) {
	for _, e := range entries {
		if s := e.Metrics[metric]; e.Name == name && s != nil {
			v, ok = s["median"], true
		}
	}
	return v, ok
}
