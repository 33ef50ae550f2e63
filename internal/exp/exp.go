// Package exp regenerates every table and figure of the paper's
// evaluation (Stricker/Gross, ISCA 1995) on the simulated machines and
// compares the results against the published values. Each experiment
// renders a plain-text table and reports shape-check findings: the
// reproduction's success criterion is that the paper's orderings and
// approximate factors hold, not that absolute 1995 numbers match.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/sim"
	"ctcomm/internal/table"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks workloads for fast test runs; the shapes must hold
	// at both scales.
	Quick bool
	// Verbose adds diagnostic notes to the tables.
	Verbose bool
	// Stats, when non-nil, receives simulator counters (events, memory
	// accesses, simulated time) from every machine created through the
	// Config's construction helpers. Execute installs a fresh Stats per
	// run so concurrent experiments never share one.
	Stats *sim.Stats
	// NoFastForward disables memsim's steady-state fast-forward on every
	// machine built through the Config's helpers. Results are identical
	// either way (the differential CI gate depends on it); only wall
	// time changes.
	NoFastForward bool

	// tally counts the shape checks made through checks(); installed by
	// Execute, nil otherwise (counting is then disabled).
	tally *tally
}

// tally accumulates shape-check pass/fail counts for one run.
type tally struct{ total, failed int }

// checks returns a shape-check collector wired to the run's tally.
func (c Config) checks() check { return check{tally: c.tally} }

// instrument applies the run's stats collector and fast-forward setting.
func (c Config) instrument(m *machine.Machine) *machine.Machine {
	m.Observe(c.Stats)
	if c.NoFastForward {
		m.Mem.FastForward = memsim.FastForwardOff
	}
	return m
}

// machines returns the paper's machine profiles instrumented with the
// run's stats collector.
func (c Config) machines() []*machine.Machine {
	ms := machine.Profiles()
	for _, m := range ms {
		c.instrument(m)
	}
	return ms
}

// t3d returns the instrumented Cray T3D profile.
func (c Config) t3d() *machine.Machine { return c.instrument(machine.T3D()) }

// t3dSized returns an instrumented T3D profile on an x*y*z torus.
func (c Config) t3dSized(x, y, z int) (*machine.Machine, error) {
	m, err := machine.T3DSized(x, y, z)
	if err != nil {
		return nil, err
	}
	return c.instrument(m), nil
}

// paragonSized returns an instrumented Paragon profile on an x*y mesh.
func (c Config) paragonSized(x, y int) (*machine.Machine, error) {
	m, err := machine.ParagonSized(x, y)
	if err != nil {
		return nil, err
	}
	return c.instrument(m), nil
}

// words returns the microbenchmark block size.
func (c Config) words() int {
	if c.Quick {
		return 1 << 14
	}
	return 1 << 17
}

// fftN returns the 2D-FFT matrix dimension (paper: 1024).
func (c Config) fftN() int {
	if c.Quick {
		return 256
	}
	return 1024
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID       string // e.g. "tab1", "fig7"
	Title    string
	PaperRef string
	// Run produces the result tables and a list of shape-check failures
	// (empty means every reproduced ordering holds).
	Run func(cfg Config) ([]*table.Table, []string, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		Fig1(), Tab1(), Fig4(), Tab2(), Tab3(), Tab4(),
		Sec341(), Sec51(), Fig7(), Fig8(), Tab5(), Tab6(), PVM3(),
		// Extensions beyond the numbered artifacts (see ext.go).
		ExtPutGet(), ExtAAPC(), ExtRedistrib(), ExtDesign(), ExtTopology(), ExtAgreement(),
	}
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	ids := make([]string, 0)
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// ByID returns the experiment with the given id, or an error.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q; valid ids: %s", id, strings.Join(IDs(), ", "))
}

// check collects shape assertions. The zero value works (failures only);
// collectors obtained through Config.checks additionally count every
// assertion into the run's tally.
type check struct {
	tally    *tally
	failures []string
}

func (c *check) expect(ok bool, format string, args ...interface{}) {
	if c.tally != nil {
		c.tally.total++
		if !ok {
			c.tally.failed++
		}
	}
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// gtr asserts a > b.
func (c *check) gtr(a, b float64, format string, args ...interface{}) {
	c.expect(a > b, format+fmt.Sprintf(" (%.1f vs %.1f)", a, b), args...)
}

// within asserts |got-want|/want <= tol.
func (c *check) within(got, want, tol float64, format string, args ...interface{}) {
	rel := 0.0
	if want != 0 {
		rel = (got - want) / want
	}
	if rel < 0 {
		rel = -rel
	}
	c.expect(rel <= tol, format+fmt.Sprintf(" (got %.1f, want %.1f ±%.0f%%)", got, want, tol*100), args...)
}
