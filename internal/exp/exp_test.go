package exp

import (
	"strings"
	"testing"
)

func TestAllExperimentsHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 19 {
		t.Errorf("expected 19 experiments (13 paper artifacts + 6 extensions), got %d", len(seen))
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("tab1")
	if err != nil || e.ID != "tab1" {
		t.Fatalf("ByID(tab1) = %v, %v", e.ID, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestIDsSorted(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not sorted: %v", ids)
		}
	}
}

// Every experiment must run cleanly and pass its shape checks in quick
// mode; the full-scale run is exercised by TestFullScaleShapes below and
// by cmd/experiments.
func TestQuickShapesPass(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := e.Execute(Config{Quick: true})
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			for _, f := range r.Failures {
				t.Errorf("shape check failed: %s", f)
			}
			if !strings.Contains(r.Output, e.Title) {
				t.Error("rendered output missing the title")
			}
		})
	}
}

func TestFullScaleShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiments take a few seconds each")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := e.Execute(Config{})
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			for _, f := range r.Failures {
				t.Errorf("shape check failed: %s", f)
			}
		})
	}
}

func TestCheckHelpers(t *testing.T) {
	var c check
	c.expect(true, "never")
	c.gtr(2, 1, "never")
	c.within(100, 100, 0.01, "never")
	if len(c.failures) != 0 {
		t.Fatalf("unexpected failures: %v", c.failures)
	}
	c.expect(false, "a")
	c.gtr(1, 2, "b")
	c.within(100, 200, 0.1, "c")
	c.within(100, 0, 0.1, "zero want is ok")
	if len(c.failures) != 3 {
		t.Fatalf("failures = %v", c.failures)
	}
}

func TestConfigScales(t *testing.T) {
	quick := Config{Quick: true}
	full := Config{}
	if quick.words() >= full.words() {
		t.Error("quick mode must shrink the block size")
	}
	if quick.fftN() >= full.fftN() {
		t.Error("quick mode must shrink the FFT")
	}
}

func TestFigureExperimentsRenderBars(t *testing.T) {
	for _, id := range []string{"fig1", "fig4", "fig7", "fig8"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, _, err := e.Run(Config{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, tab := range tables {
			if strings.Contains(tab.Figure, "#") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no bar figure rendered", id)
		}
	}
}

func TestAtofOr0(t *testing.T) {
	if atofOr0("12.5") != 12.5 {
		t.Error("parse failed")
	}
	if atofOr0("n/a") != 0 {
		t.Error("junk should be 0")
	}
}
