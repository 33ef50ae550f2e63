package collective

import (
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
	"ctcomm/internal/sim"
	"ctcomm/internal/syncsim"
)

// phaseTimes runs every phase of the plan in isolation — a fresh
// network, started at time zero — and returns the per-phase engine
// makespans. Evaluate separates phases by a barrier that outlasts
// every in-flight flow, so each phase in sequence behaves exactly like
// a phase on an idle network; summing these times reconstructs the
// evaluator's makespan independently of its loop.
func phaseTimes(t *testing.T, p *Plan, m *machine.Machine, words int) []sim.Time {
	t.Helper()
	bytesPerBlock := int64(words) * pattern.WordBytes
	times := make([]sim.Time, len(p.Schedule.Phases))
	for pi := range p.Schedule.Phases {
		net := netsim.MustNewNetwork(m.Topo, m.Net)
		_, end := net.Batch(0, p.Schedule.PhaseFlows(pi, bytesPerBlock), netsim.DataOnly)
		times[pi] = end
	}
	return times
}

// TestMakespanCountsSeparators is the regression pin for the
// off-by-one-barrier fix: an n-phase plan's makespan equals the sum of
// its n phase times plus exactly n-1 barrier+library separators. The
// old evaluator charged a separator after the final phase too,
// inflating every makespan by one overhead.
func TestMakespanCountsSeparators(t *testing.T) {
	cases := []struct {
		op     Op
		st     Strategy
		nodes  int
		offset int
	}{
		{Shift, Pairwise, 8, 1},    // 1 phase: no separator at all
		{Reduce, Pairwise, 4, 0},   // 3 serial phases
		{AllToAll, Doubling, 8, 0}, // 3 congested phases
		{AllToAll, HyperSystolic, 16, 0},
		{Broadcast, Doubling, 16, 0},
	}
	for _, m := range machine.AllProfiles() {
		for _, c := range cases {
			p, err := New(c.op, c.st, c.nodes, c.offset)
			if err != nil {
				t.Fatalf("%s: plan %s/%s: %v", m.Name, c.op, c.st, err)
			}
			for _, words := range []int{64, 257} {
				ev, err := p.Evaluate(m, words, true)
				if err != nil {
					t.Fatalf("%s: %s/%s: %v", m.Name, c.op, c.st, err)
				}
				barrier, _, err := syncsim.Best(m, c.nodes)
				if err != nil {
					t.Fatal(err)
				}
				overhead := sim.Time(barrier + m.LibOverheadNs)
				var want sim.Time
				times := phaseTimes(t, p, m, words)
				for _, pt := range times {
					want += pt
				}
				want += sim.Time(len(times)-1) * overhead
				if got := sim.Time(ev.MakespanNs); got != want {
					t.Errorf("%s %s/%s words=%d: makespan = %d ns, want %d phase times + %d separators = %d ns",
						m.Name, c.op, c.st, words, got, len(times), len(times)-1, want)
				}
			}
		}
	}
}

// A single-phase plan pays no synchronization at all: its makespan is
// exactly the phase's network time.
func TestSinglePhaseNoSeparator(t *testing.T) {
	m := machine.T3D()
	p, err := New(Shift, Pairwise, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Schedule.Phases); got != 1 {
		t.Fatalf("pairwise shift has %d phases, want 1", got)
	}
	ev, err := p.Evaluate(m, 128, true)
	if err != nil {
		t.Fatal(err)
	}
	want := phaseTimes(t, p, m, 128)[0]
	if sim.Time(ev.MakespanNs) != want {
		t.Errorf("single-phase makespan = %v ns, want the bare phase time %d ns", ev.MakespanNs, want)
	}
}

// TestPhaseCongestionCached pins the hoisted congestion computation:
// the cached per-plan factors must be identical to computing
// netsim.CongestionOf per phase per call (the pre-cache behavior),
// and repeated evaluations at different word counts must agree.
func TestPhaseCongestionCached(t *testing.T) {
	for _, m := range machine.AllProfiles() {
		for _, st := range Strategies() {
			p, err := New(AllToAll, st, 16, 0)
			if err != nil {
				t.Fatal(err)
			}
			ev1, err := p.Evaluate(m, 64, false)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: the direct computation, per phase, with the
			// words-dependent flow sizes the old code used.
			var want float64
			for pi := range p.Schedule.Phases {
				flows := p.Schedule.PhaseFlows(pi, 64*pattern.WordBytes)
				if c := netsim.CongestionOf(m.Topo, flows, m.Net.NodesPerPort); c > want {
					want = c
				}
			}
			if ev1.MaxCongestion != want {
				t.Errorf("%s %s: cached MaxCongestion = %g, direct = %g", m.Name, st, ev1.MaxCongestion, want)
			}
			ev2, err := p.Evaluate(m, 4096, false)
			if err != nil {
				t.Fatal(err)
			}
			if ev2.MaxCongestion != ev1.MaxCongestion {
				t.Errorf("%s %s: congestion varies with words: %g vs %g", m.Name, st, ev1.MaxCongestion, ev2.MaxCongestion)
			}
		}
	}
}

// TestMachineCostsOneCounterBuffer: a plan's words-invariant costs
// count every phase in one link-load buffer, so a fifteen-phase
// all-to-all allocates exactly what a one-phase shift over the same
// nodes does, and its congestions equal CongestionOf phase by phase.
func TestMachineCostsOneCounterBuffer(t *testing.T) {
	m := machine.T3D()
	const nodes, runs = 16, 5
	allocs := func(op Op) (float64, *Plan) {
		plans := make([]*Plan, runs+1) // machineCosts caches per plan: a fresh one per run
		for i := range plans {
			p, err := New(op, Pairwise, nodes, 1)
			if err != nil {
				t.Fatal(err)
			}
			plans[i] = p
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			plans[i].machineCosts(m)
			i++
		}), plans[0]
	}
	one, shift := allocs(Shift)
	many, a2a := allocs(AllToAll)
	if len(shift.Schedule.Phases) != 1 || len(a2a.Schedule.Phases) != nodes-1 {
		t.Fatalf("fixture: %d and %d phases", len(shift.Schedule.Phases), len(a2a.Schedule.Phases))
	}
	if one != many {
		t.Errorf("machineCosts allocates %v for one phase, %v for %d", one, many, nodes-1)
	}
	for pi, got := range a2a.machineCosts(m).congestion {
		if want := netsim.CongestionOf(m.Topo, a2a.Schedule.PhaseFlows(pi, 1), m.Net.NodesPerPort); got != want {
			t.Errorf("phase %d: congestion %v, CongestionOf %v", pi, got, want)
		}
	}
}
