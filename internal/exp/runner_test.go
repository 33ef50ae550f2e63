package exp

import (
	"strings"
	"testing"
)

func TestSelect(t *testing.T) {
	all, err := Select(nil)
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(nil) = %d exps, err %v", len(all), err)
	}
	got, err := Select([]string{"tab4", "tab1"})
	if err != nil || len(got) != 2 || got[0].ID != "tab4" || got[1].ID != "tab1" {
		t.Fatalf("Select order not preserved: %v, %v", got, err)
	}
	if _, err := Select([]string{"tab1", "nope"}); err == nil {
		t.Fatal("unknown id must fail")
	} else if !strings.Contains(err.Error(), "nope") || !strings.Contains(err.Error(), "tab1") {
		t.Errorf("error must name the bad id and the valid ones: %v", err)
	}
}

func TestExecuteCollectsMetrics(t *testing.T) {
	e, err := ByID("tab4")
	if err != nil {
		t.Fatal(err)
	}
	r := e.Execute(Config{Quick: true})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	m := r.Metrics
	if m.ID != "tab4" || !m.Pass || m.ChecksTotal == 0 || m.ChecksFailed != 0 {
		t.Errorf("check tally incomplete: %+v", m)
	}
	if m.Events == 0 {
		t.Error("tab4 runs the event-level network; events must be attributed")
	}
	if m.SimMs <= 0 || m.WallMs <= 0 {
		t.Errorf("times missing: %+v", m)
	}
	if len(r.Tables) == 0 || !strings.Contains(r.Output, "shape check: PASS") {
		t.Errorf("output not captured: %d tables\n%s", len(r.Tables), r.Output)
	}
}

func TestRunParallelClampsWorkers(t *testing.T) {
	for _, workers := range []int{-3, 0, 1, 99} {
		results, err := RunParallel(Config{Quick: true}, []string{"tab4"}, workers)
		if err != nil || len(results) != 1 || results[0].Err != nil {
			t.Fatalf("workers=%d: %v, %v", workers, results, err)
		}
	}
	if _, err := RunParallel(Config{Quick: true}, []string{"bogus"}, 2); err == nil {
		t.Fatal("unknown id must fail before any run")
	}
}

// The determinism invariant: running every experiment on many workers
// must reproduce the serial output, failures and simulator counters
// exactly. This test is the -race gate for the whole experiment
// pipeline: every simulator an experiment touches runs here on a
// non-main goroutine concurrently with all the others.
func TestRunParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick sweep twice")
	}
	cfg := Config{Quick: true}
	serial, err := RunParallel(cfg, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunParallel(cfg, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) || len(serial) != len(All()) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Experiment.ID != p.Experiment.ID {
			t.Fatalf("order diverged at %d: %s vs %s", i, s.Experiment.ID, p.Experiment.ID)
		}
		if s.Err != nil || p.Err != nil {
			t.Fatalf("%s: errs %v / %v", s.Experiment.ID, s.Err, p.Err)
		}
		if s.Output != p.Output {
			t.Errorf("%s: parallel output differs from serial", s.Experiment.ID)
		}
		if len(s.Failures) != len(p.Failures) {
			t.Errorf("%s: failures differ: %v vs %v", s.Experiment.ID, s.Failures, p.Failures)
		}
		// The simulators are deterministic, so the attributed counters
		// must agree exactly; only wall time may differ.
		sm, pm := s.Metrics, p.Metrics
		if sm.Events != pm.Events || sm.MemAccesses != pm.MemAccesses ||
			sm.SimMs != pm.SimMs || sm.ChecksTotal != pm.ChecksTotal ||
			sm.ChecksFailed != pm.ChecksFailed {
			t.Errorf("%s: metrics diverge: serial %+v parallel %+v", s.Experiment.ID, sm, pm)
		}
	}
}
