package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// scriptEntries folds the per-line objects the former shell recorder
// normalized from testdata/bench.txt into the entries parseBench must
// produce: one per name, each of the script's values a metric.
func scriptEntries(t *testing.T) []entry {
	f, err := os.Open("testdata/bench.want.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var names []string
	values := map[string]map[string][]float64{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		name := line["name"].(string)
		if values[name] == nil {
			names, values[name] = append(names, name), map[string][]float64{}
		}
		for k, v := range line {
			if k != "name" && k != "date" && k != "commit" {
				values[name][k] = append(values[name][k], v.(float64))
			}
		}
	}
	var want []entry
	for _, name := range names {
		// Every benchmark of the transcript ran under the same header.
		h := &host{CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 2, GOOS: "linux", GOARCH: "amd64"}
		e := entry{Name: name, Host: h, Metrics: map[string]map[string]float64{}}
		for k, xs := range values[name] {
			slices.Sort(xs)
			e.N = len(xs)
			med := (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
			e.Metrics[k] = map[string]float64{"median": med, "min": xs[0], "max": xs[len(xs)-1]}
		}
		want = append(want, e)
	}
	return want
}

func TestParseBench(t *testing.T) {
	transcript, err := os.ReadFile("testdata/bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	stat := func(v float64) map[string]float64 { return map[string]float64{"median": v, "min": v, "max": v} }
	cases := []struct {
		name, in string
		want     []entry
	}{
		{"script transcript", string(transcript), scriptEntries(t)},
		{"no GOMAXPROCS suffix, hyphenated sub-benchmark", strings.Join([]string{
			"goos: linux",
			"BenchmarkA \t 10\t 5.5 ns/op",
			"BenchmarkB/size-8-4 \t 3\t 7 ns/op\t 2 rows/sec",
			"BenchmarkC-2 --- FAIL: BenchmarkC-2",
			"BenchmarkD-2 \t 3\t 7 B/op",
			"ok  \tctcomm/internal/x\t0.1s",
		}, "\n"), []entry{
			{Name: "BenchmarkA", Host: &host{GOMAXPROCS: 1, GOOS: "linux"}, N: 1,
				Metrics: map[string]map[string]float64{"iterations": stat(10), "ns_per_op": stat(5.5)}},
			{Name: "BenchmarkB/size-8", Host: &host{GOMAXPROCS: 4, GOOS: "linux"}, N: 1, Metrics: map[string]map[string]float64{
				"iterations": stat(3), "ns_per_op": stat(7), "rows_per_sec": stat(2)}},
		}},
		{"median of three", "BenchmarkA-2 1 30 ns/op\nBenchmarkA-2 1 10 ns/op\nBenchmarkA-2 1 20 ns/op\n", []entry{
			{Name: "BenchmarkA", Host: &host{GOMAXPROCS: 2}, N: 3, Metrics: map[string]map[string]float64{
				"iterations": stat(1), "ns_per_op": {"median": 20, "min": 10, "max": 30}}},
		}},
		{"each package's header names its host", strings.Join([]string{
			"goos: linux", "goarch: amd64", "pkg: ctcomm/a", "cpu: CPU One",
			"BenchmarkA-8 \t 1\t 5 ns/op",
			"goos: darwin", "goarch: arm64", "pkg: ctcomm/b", "cpu: CPU Two: rev 2",
			"BenchmarkB \t 1\t 6 ns/op",
		}, "\n"), []entry{
			{Name: "BenchmarkA", Host: &host{CPU: "CPU One", GOMAXPROCS: 8, GOOS: "linux", GOARCH: "amd64"}, N: 1,
				Metrics: map[string]map[string]float64{"iterations": stat(1), "ns_per_op": stat(5)}},
			{Name: "BenchmarkB", Host: &host{CPU: "CPU Two: rev 2", GOMAXPROCS: 1, GOOS: "darwin", GOARCH: "arm64"}, N: 1,
				Metrics: map[string]map[string]float64{"iterations": stat(1), "ns_per_op": stat(6)}},
		}},
	}
	for _, c := range cases {
		got := parseBench(c.in, entry{})
		for _, e := range got {
			// The shell recorder dropped SetBytes' MB/s and custom units
			// other than rows/sec; the memsim benchmarks report both.
			if strings.HasPrefix(e.Name, "BenchmarkRunStream") && (e.Metrics["MB_per_s"] == nil || e.Metrics["simMB_per_s"] == nil) {
				t.Errorf("%s: %s lost a custom unit: %v", c.name, e.Name, e.Metrics)
			}
			delete(e.Metrics, "MB_per_s")
			delete(e.Metrics, "simMB_per_s")
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}

func TestParsePerfbench(t *testing.T) {
	out := "" +
		"query-mix     first_row_p50_ms  median       0.0000  q1       0.0000  q3       0.0000  spread    NaN\n" +
		"query-mix     ops_per_s         median   14180.0000  q1   13900.0000  q3   14400.0000  spread  0.035\n" +
		"sweep-law     ops_per_s         median    3465.0000  q1    3400.0000  q3    3500.0000  spread  0.029\n"
	got := parsePerfbench(out, entry{Commit: "abc"})
	want := []entry{
		{Name: "perfbench/query-mix", Commit: "abc", N: perfbenchRepeat, Metrics: map[string]map[string]float64{
			"first_row_p50_ms": {"median": 0, "q1": 0, "q3": 0},
			"ops_per_s":        {"median": 14180, "q1": 13900, "q3": 14400}}},
		{Name: "perfbench/sweep-law", Commit: "abc", N: perfbenchRepeat, Metrics: map[string]map[string]float64{
			"ops_per_s": {"median": 3465, "q1": 3400, "q3": 3500}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v\nwant %+v", got, want)
	}
	// The NaN spread must not reach the file: JSON cannot encode it.
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		if err := appendEntries(dir, map[string][]entry{"BENCH_perfbench.json": got}); err != nil {
			t.Fatal(err)
		}
	}
	back, err := readEntries(filepath.Join(dir, "BENCH_perfbench.json"))
	if err != nil || !reflect.DeepEqual(back, append(got, got...)) {
		t.Errorf("round trip = %+v, %v", back, err)
	}
}

// A perfbench entry is stamped with the host benchtrack runs on, which
// the benchmark it starts shares.
func TestRuntimeHost(t *testing.T) {
	h := runtimeHost()
	if h.GOMAXPROCS != runtime.GOMAXPROCS(0) || h.GOOS != runtime.GOOS || h.GOARCH != runtime.GOARCH {
		t.Errorf("runtimeHost() = %+v", h)
	}
}

// TestGateVerdicts pins the gate's decisions: best of gateRuns against
// factor × the latest baseline median, in both directions, each run at
// recordBenchtime, the benchtime the baselines were recorded at.
func TestGateVerdicts(t *testing.T) {
	higher := row{"BenchmarkX", "./x/", "BENCH_x.json", &gate{"rows_per_sec", true, 0.75}}
	lower := row{"BenchmarkX", "./x/", "BENCH_x.json", &gate{"ns_per_op", false, 2.0}}
	baseline := []entry{
		{Name: "BenchmarkX", Commit: "old", N: 1, Metrics: map[string]map[string]float64{
			"rows_per_sec": {"median": 1}, "ns_per_op": {"median": 1}}},
		{Name: "BenchmarkX", Commit: "new", N: 3, Metrics: map[string]map[string]float64{
			"rows_per_sec": {"median": 100, "min": 90, "max": 110}, "ns_per_op": {"median": 100, "min": 90, "max": 110}}},
	}
	cases := []struct {
		name     string
		r        row
		baseline []entry
		runs     []float64 // each run's metric; a negative value prints no metric
		allow    bool
		pass     bool
		log      string
	}{
		{"higher, best above threshold", higher, baseline, []float64{60, 80, 70}, false, true, "BenchmarkX ok (best 80"},
		{"higher, best below threshold", higher, baseline, []float64{70, 74.9, 60}, false, false, "BenchmarkX FAIL (best 74.9"},
		{"higher, exactly at threshold", higher, baseline, []float64{75, 50, 10}, false, true, "BenchmarkX ok (best 75"},
		{"lower, best below threshold", lower, baseline, []float64{250, 190, 300}, false, true, "BenchmarkX ok (best 190"},
		{"lower, best above threshold", lower, baseline, []float64{250, 201, 300}, false, false, "BenchmarkX FAIL (best 201"},
		{"lower, exactly at threshold", lower, baseline, []float64{250, 200, 300}, false, true, "BenchmarkX ok (best 200"},
		{"regression allowed", higher, baseline, []float64{10, 20, 30}, true, true, "REGRESSION, passing with a warning"},
		{"missing baseline", higher, nil, []float64{100, 100, 100}, true, false, "no BenchmarkX rows_per_sec baseline"},
		{"baseline of another benchmark", higher, []entry{{Name: "BenchmarkY", N: 1,
			Metrics: map[string]map[string]float64{"rows_per_sec": {"median": 100}}}}, []float64{100, 100, 100}, true, false, "baseline"},
		{"run prints no metric", higher, baseline, []float64{100, -1, 100}, true, false, "BenchmarkX reported no rows_per_sec"},
	}
	for _, c := range cases {
		dir := t.TempDir()
		if c.baseline != nil {
			if err := appendEntries(dir, map[string][]entry{c.r.file: c.baseline}); err != nil {
				t.Fatal(err)
			}
		}
		calls := 0
		bench := func(benchtime string, count int, rows ...row) (string, error) {
			if benchtime != recordBenchtime || count != 1 || len(rows) != 1 || rows[0].name != c.r.name {
				t.Errorf("%s: bench(%s, %d, %v)", c.name, benchtime, count, rows)
			}
			v := c.runs[calls]
			calls++
			switch {
			case v < 0:
				return "BenchmarkX-2 \t 1\t 5 ns/op\n", nil
			case c.r.gate.metric == "ns_per_op":
				return fmt.Sprintf("BenchmarkX-2 \t 1\t %g ns/op\n", v), nil
			}
			return fmt.Sprintf("BenchmarkX-2 \t 1\t 5 ns/op\t %g rows/sec\n", v), nil
		}
		var log strings.Builder
		err := runGate([]row{c.r}, dir, c.allow, bench, &log)
		if (err == nil) != c.pass || !strings.Contains(log.String(), c.log) {
			t.Errorf("%s: err = %v, want pass %v; log:\n%s", c.name, err, c.pass, log.String())
		}
	}
}

// TestRecord pins where record writes: into a directory it makes first,
// all files or none, each entry stamped with its benchtime.
func TestRecord(t *testing.T) {
	rows := []row{{"BenchmarkA", "./a/", "BENCH_a.json", nil}, {"BenchmarkB", "./b/", "BENCH_b.json", nil}}
	out := "BenchmarkA-2 \t 10\t 5 ns/op\nBenchmarkB/x-2 \t 3\t 7 ns/op\nBenchmarkB/y-2 \t 3\t 8 ns/op\n"
	bench := func(benchtime string, count int, got ...row) (string, error) {
		if benchtime != recordBenchtime || count != recordCount || !reflect.DeepEqual(got, rows) {
			t.Errorf("bench(%s, %d, %v)", benchtime, count, got)
		}
		return out, nil
	}
	names := func(path string) (ns []string) {
		entries, err := readEntries(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			ns = append(ns, e.Name)
		}
		return ns
	}

	// A missing directory is made, nested or not.
	dir := filepath.Join(t.TempDir(), "new", "bench-json")
	for i := 0; i < 2; i++ {
		if err := record(rows, dir, bench); err != nil {
			t.Fatal(err)
		}
	}
	if entries, err := readEntries(filepath.Join(dir, "BENCH_a.json")); err != nil || entries[0].Benchtime != recordBenchtime {
		t.Errorf("recorded entries %+v (%v), want benchtime %s", entries, err, recordBenchtime)
	}
	if a, b := names(filepath.Join(dir, "BENCH_a.json")), names(filepath.Join(dir, "BENCH_b.json")); !reflect.DeepEqual(a, []string{"BenchmarkA", "BenchmarkA"}) ||
		!reflect.DeepEqual(b, []string{"BenchmarkB/x", "BenchmarkB/y", "BenchmarkB/x", "BenchmarkB/y"}) {
		t.Errorf("recorded a %v, b %v", a, b)
	}

	// One unreadable file leaves every file as it was.
	before, _ := os.ReadFile(filepath.Join(dir, "BENCH_a.json"))
	if err := os.WriteFile(filepath.Join(dir, "BENCH_b.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := record(rows, dir, bench)
	if after, _ := os.ReadFile(filepath.Join(dir, "BENCH_a.json")); err == nil || string(after) != string(before) {
		t.Errorf("record over a bad file: err = %v, BENCH_a.json changed %v", err, string(after) != string(before))
	}

	// A row that printed nothing records nothing.
	out = "BenchmarkA-2 \t 10\t 5 ns/op\n"
	dir = t.TempDir()
	if err := record(rows, dir, bench); err == nil || !strings.Contains(err.Error(), "BenchmarkB printed no") {
		t.Errorf("record with a silent row: err = %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Errorf("record with a silent row wrote %v", files)
	}
}

// TestTableRowsExist keeps the table in step with the code: every row
// names a benchmark its package defines and a trajectory file that is
// checked in at the repository root.
func TestTableRowsExist(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, r := range table {
		if _, err := os.Stat(filepath.Join(root, r.file)); err != nil {
			t.Errorf("%s: %v", r.name, err)
		}
		files, err := filepath.Glob(filepath.Join(root, r.pkg, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no test files in %s (%v)", r.name, r.pkg, err)
		}
		found := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			found = found || strings.Contains(string(src), "func "+r.name+"(b *testing.B)")
		}
		if !found {
			t.Errorf("%s: not defined in %s", r.name, r.pkg)
		}
	}
}
