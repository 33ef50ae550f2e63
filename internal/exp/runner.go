package exp

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ctcomm/internal/runstats"
	"ctcomm/internal/sim"
	"ctcomm/internal/table"
)

// Result captures one executed experiment: the rendered text block
// exactly as the serial path prints it, the raw tables (for CSV and
// markdown writers, so they never re-run the experiment), the
// shape-check failures, and the run metrics.
type Result struct {
	Experiment Experiment
	Tables     []*table.Table
	Output     string
	Failures   []string
	Err        error
	Metrics    runstats.Run
}

// Execute runs the experiment once with a private stats collector and
// check tally, and renders its output into Result.Output.
func (e Experiment) Execute(cfg Config) Result {
	st, tl := new(sim.Stats), new(tally)
	cfg.Stats, cfg.tally = st, tl

	res := Result{Experiment: e}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== %s: %s (%s) ==\n\n", e.ID, e.Title, e.PaperRef)
	tables, failures, err := e.Run(cfg)
	if err != nil {
		res.Err = fmt.Errorf("%s: %w", e.ID, err)
	}
	if res.Err == nil {
		for _, t := range tables {
			if err := t.Render(&buf); err != nil {
				res.Err = err
				break
			}
		}
	}
	if res.Err == nil {
		if len(failures) == 0 {
			fmt.Fprintf(&buf, "shape check: PASS\n\n")
		} else {
			fmt.Fprintf(&buf, "shape check: FAIL\n")
			for _, f := range failures {
				fmt.Fprintf(&buf, "  - %s\n", f)
			}
			fmt.Fprintln(&buf)
		}
		res.Tables = tables
		res.Output = buf.String()
		res.Failures = failures
	}

	wall := time.Since(start)
	// Allocation deltas come from the global heap counters, so — like
	// WallMs — they are approximate when experiments run concurrently
	// (the serial path attributes them exactly).
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m := runstats.Run{
		ID:           e.ID,
		Title:        e.Title,
		WallMs:       float64(wall) / float64(time.Millisecond),
		SimMs:        float64(st.SimTime()) / 1e6,
		Events:       st.Events(),
		MemAccesses:  st.Accesses(),
		AllocBytes:   ms1.TotalAlloc - ms0.TotalAlloc,
		AllocObjects: ms1.Mallocs - ms0.Mallocs,
		ChecksTotal:  tl.total,
		ChecksFailed: tl.failed,
		Pass:         res.Err == nil && len(failures) == 0,
	}
	if res.Err != nil {
		m.Error = res.Err.Error()
	}
	res.Metrics = m
	return res
}

// RunParallel resolves ids (all experiments, in paper order, when ids
// is empty) and executes them on up to workers goroutines. Each
// experiment gets its own simulator instances, stats collector and
// output buffer, so results are bit-identical to the serial path;
// the returned slice preserves the input order regardless of which
// worker finished first. workers < 1 and workers > len(ids) are
// clamped; workers == 1 is the serial path.
func RunParallel(cfg Config, ids []string, workers int) ([]Result, error) {
	exps, err := Select(ids)
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	results := make([]Result, len(exps))
	if workers <= 1 {
		for i, e := range exps {
			results[i] = e.Execute(cfg)
		}
		return results, nil
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = exps[i].Execute(cfg)
			}
		}()
	}
	for i := range exps {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, nil
}

// Select resolves experiment ids in the given order; an empty list
// selects every experiment in paper order. Unknown ids are an error
// naming the valid ones.
func Select(ids []string) ([]Experiment, error) {
	if len(ids) == 0 {
		return All(), nil
	}
	exps := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			return nil, err
		}
		exps = append(exps, e)
	}
	return exps, nil
}
