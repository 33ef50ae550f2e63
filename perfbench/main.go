// Command perfbench is the repository benchmark: it sends seeded
// traffic over loopback HTTP to an in-process ctserved (or, in
// routed-mix, to a ctrouter in front of two replicas), checks every
// answer, and prints the end-to-end metrics of BENCHMARK.json. With
// --trace 1 it instead replays the same inputs at each layer's entry
// point and prints the per-layer metrics. See README.md.
//
//	bash perfbench/run.sh --workload query-mix --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --repeat 10 --seconds 25
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Set-up is timed as the median of several cold starts per run, since
// single cold starts on a noisy host spread by a third: at least
// minSetupRuns, and more while they take under setupBudget in all, up
// to maxSetupRuns (cheap set-ups get more samples).
const (
	minSetupRuns = 5
	maxSetupRuns = 15
	setupBudget  = 2 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed       = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds    = fs.Int("seconds", 25, "measured window in seconds")
		trace      = fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the timed run")
		setupChild = fs.Bool("setup-child", false, "start the stack, build its lazy structures, print ready and exit (used to time setup_s)")
		repeat     = fs.Int("repeat", 0, "run this many sets of runs, workloads alternating, and print each metric's median and quartiles")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *repeat > 0 {
		if err := repeatRuns(*repeat, *seed, *seconds, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *setupChild {
		if err := setupOnce(*workload, *seed, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(*workload, *seed, stderr)
	} else {
		res, err = timed(*workload, *seed, *seconds, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: FAILED: %d of %d answers failed or mismatched\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// roundsFor sizes the generated rounds so a run cannot exhaust them
// before its window ends: about twice the rounds the tuning host runs
// in a window at its fastest pace, or as many as the sweep workloads'
// residue classes allow. A run that still runs out fails (see timed).
func roundsFor(workload string, seconds int) int {
	perSecond := map[string]int{"query-mix": 80, "routed-mix": 30, "sweep-law": 32, "sweep-engine": 24}
	n := seconds*perSecond[workload] + 8
	switch workload {
	case "sweep-law":
		// A law round takes one of 1024 residue classes per collective
		// family.
		n = min(n, 1000)
	case "sweep-engine":
		// An engine round takes one of 512 array sizes per plan slot
		// and one of 512 sets of word counts per price slot.
		n = min(n, 500)
	}
	return n
}

// setupOnce is one cold start: it starts the stack, waits until it
// answers, sends the set-up requests, prints "ready" and shuts down.
func setupOnce(workload string, seed int64, stdout io.Writer) error {
	in, err := Generate(workload, seed, 0)
	if err != nil {
		return err
	}
	st, err := startStack(in.Routed, nil)
	if err != nil {
		return err
	}
	defer st.close()
	c := newClient(1)
	if err := waitReady(c, st.base); err != nil {
		return err
	}
	ck := newChecker(in)
	(&loop{client: c, base: st.base, in: in, ck: ck}).sendAll(in.Warm)
	if ck.failed > 0 {
		return fmt.Errorf("set-up requests failed: %v", ck.errs)
	}
	fmt.Fprintln(stdout, "ready")
	return nil
}

// timeSetup starts cold processes one after another and returns the
// median time from start until each printed "ready". The caller scales
// it to reference pace with the run's pace factor: a probe per cold
// start is too short a sample of the host's pace.
func timeSetup(workload string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	var spent time.Duration
	for len(times) < minSetupRuns || (len(times) < maxSetupRuns && spent < setupBudget) {
		cmd := exec.Command(self, "--setup-child", "--workload", workload, "--seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		took := time.Since(start)
		_, _ = io.Copy(io.Discard, out)
		werr := cmd.Wait()
		if rerr != nil || strings.TrimSpace(line) != "ready" || werr != nil {
			return 0, fmt.Errorf("set-up process: %q, %v, %v", line, rerr, werr)
		}
		times = append(times, took.Seconds())
		spent += took
	}
	return quantile(times, 0.5), nil
}

// timed is the untraced run: set-up timing, then the closed loop for
// seconds, then answer verification.
func timed(workload string, seed int64, seconds int, stdout, stderr io.Writer) (*result, error) {
	in, err := Generate(workload, seed, roundsFor(workload, seconds))
	if err != nil {
		return nil, err
	}
	setup, err := timeSetup(workload, seed)
	if err != nil {
		return nil, err
	}

	st, err := startStack(in.Routed, nil)
	if err != nil {
		return nil, err
	}
	client := newClient(in.Conns)
	if err := waitReady(client, st.base); err != nil {
		st.close()
		return nil, err
	}
	ck := newChecker(in)
	l := &loop{client: client, base: st.base, in: in, ck: ck}
	l.sendAll(in.Warm)
	l.sendAll(in.Fill)
	l.run(in.Rounds[:1], time.Time{}) // warm-up round, unmeasured

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rounds := l.run(in.Rounds[1:], time.Now().Add(time.Duration(seconds)*time.Second))
	runtime.ReadMemStats(&m1)
	if len(rounds) == len(in.Rounds)-1 {
		// The parent and a change must time the same window.
		st.close()
		return nil, fmt.Errorf("the %d generated rounds ran out before the %d s window ended", len(rounds), seconds)
	}

	direct := ""
	if in.Routed {
		direct = st.replicas[0]
	}
	verifyStart := time.Now()
	compared := ck.verify(client, direct)
	verifyS := time.Since(verifyStart).Seconds()
	e := summarize(rounds, l.paces)
	attempted, failed, errs := ck.attempted, ck.failed, ck.errs
	// The live heap is the program's: the benchmark drops its inputs,
	// samples and kept answers first. What it still holds is a fixed
	// few hundred KiB (the pace probe's tables and the client's two
	// connections).
	in, ck, l, rounds = nil, nil, nil, nil
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)
	st.close()

	info := map[string]interface{}{
		"workload": workload, "seed": seed, "requests": e.requests, "answers": e.answers,
		"rounds": e.rounds, "window_s": e.windowS, "raw_ops_per_s": e.rawOpsPerS,
		"pace": e.pace, "compared": compared, "verify_s": verifyS, "errors": errs,
		"elapsed_s": time.Since(processStart).Seconds(),
	}
	infoLine, _ := json.Marshal(info)
	fmt.Fprintln(stdout, string(infoLine))
	if e.requests < 1000 {
		fmt.Fprintf(stderr, "perfbench: warning: only %d requests (p99 wants 1000)\n", e.requests)
	}

	answers := max(1, e.answers)
	res := &result{
		Correct:   failed == 0 && e.requests > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {setup / e.pace, "s"},
			"ops_per_s":        {e.opsPerS, "1/s"},
			"latency_p50_ms":   {e.p50, "ms"},
			"latency_p99_ms":   {e.p99, "ms"},
			"first_row_p50_ms": {e.firstP50, "ms"},
			"alloc_kb_per_op":  {float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(answers), "KiB"},
			"live_heap_mb":     {float64(mh.HeapAlloc) / (1 << 20), "MiB"},
		},
	}
	return res, nil
}

// repeatRuns runs sets of runs with the workloads alternating, each run
// a fresh process with its own seed, and prints per workload each
// metric's median, quartiles and spread (quartile distance over
// median).
func repeatRuns(sets int, seed int64, seconds int, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	for s := 0; s < sets; s++ {
		for _, w := range workloads {
			args := []string{"--workload", w, "--seed", fmt.Sprint(seed + int64(s)), "--seconds", fmt.Sprint(seconds), "--trace", "0"}
			out, err := exec.Command(self, args...).Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed+int64(s), err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect answers", w, seed+int64(s))
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			fmt.Fprintf(stderr, "set %d %s: %s\n", s, w, lines[len(lines)-1])
		}
	}
	for _, w := range workloads {
		var names []string
		for name := range values[w] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			q1, med, q3 := quartiles(values[w][name])
			fmt.Fprintf(stdout, "%-13s %-17s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f\n",
				w, name, med, q1, q3, (q3-q1)/med)
		}
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		i := int(pos)
		delta := pos - float64(i)
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + delta*(s[i]-s[i-1])
	}
	return at(1), at(2), at(3)
}
