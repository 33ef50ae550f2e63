package collective

import (
	"errors"
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
)

// allOps lists every collective operation.
var allOps = []Op{AllToAll, Broadcast, Shift, Reduce}

// TestPlansValidate builds every collective x strategy over a spread
// of node counts and holds each schedule to the influence-propagation
// contract: the planned phases really implement the operation.
func TestPlansValidate(t *testing.T) {
	for _, op := range allOps {
		for _, st := range Strategies() {
			for _, n := range []int{4, 6, 8, 9, 16, 64, 100} {
				if st == Doubling && n&(n-1) != 0 {
					continue // rejected; covered by TestBadSpecs
				}
				p, err := New(op, st, n, 1)
				if err != nil {
					t.Fatalf("New(%s, %s, %d): %v", op, st, n, err)
				}
				if err := p.Validate(); err != nil {
					t.Errorf("%s/%s over %d nodes: %v", op, st, n, err)
				}
				if len(p.Schedule.Phases) == 0 {
					t.Errorf("%s/%s over %d nodes: empty schedule", op, st, n)
				}
			}
		}
	}
}

// TestPhaseCounts pins the phase complexity each strategy promises:
// pairwise is linear in n, doubling logarithmic, hyper-systolic about
// 2*sqrt(n) for the volume collectives.
func TestPhaseCounts(t *testing.T) {
	const n = 64 // K=8, a=8
	want := map[Op]map[Strategy]int{
		AllToAll:  {Pairwise: 63, Doubling: 6, HyperSystolic: 14},
		Broadcast: {Pairwise: 63, Doubling: 6, HyperSystolic: 14},
		Reduce:    {Pairwise: 63, Doubling: 6, HyperSystolic: 14},
		Shift:     {Pairwise: 1, Doubling: 1, HyperSystolic: 1},
	}
	for op, byStrat := range want {
		for st, phases := range byStrat {
			p, err := New(op, st, n, 1)
			if err != nil {
				t.Fatalf("New(%s, %s, %d): %v", op, st, n, err)
			}
			if got := len(p.Schedule.Phases); got != phases {
				t.Errorf("%s/%s over %d nodes: %d phases, want %d", op, st, n, got, phases)
			}
		}
	}
	// A long shift shows the decomposition at work: offset 21 is
	// 10101 in binary (3 phases doubling) and 2*8+5 on the 8x8 grid
	// (7 phases hyper-systolic) vs 1 direct phase.
	for st, phases := range map[Strategy]int{Pairwise: 1, Doubling: 3, HyperSystolic: 7} {
		p, err := New(Shift, st, n, 21)
		if err != nil {
			t.Fatalf("New(shift, %s, %d, 21): %v", st, n, err)
		}
		if got := len(p.Schedule.Phases); got != phases {
			t.Errorf("shift/%s offset 21: %d phases, want %d", st, got, phases)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("shift/%s offset 21: %v", st, err)
		}
	}
}

// TestReplicaStorageSurfaced pins the storage side of the
// hyper-systolic trade-off: the all-to-all planner must report the
// (K-1)*a staged blocks, pairwise must report none.
func TestReplicaStorageSurfaced(t *testing.T) {
	p, err := New(AllToAll, HyperSystolic, 64, 0) // K=8, a=8
	if err != nil {
		t.Fatal(err)
	}
	if p.ReplicaBlocks != 56 {
		t.Errorf("hyper-systolic all-to-all over 64 nodes: ReplicaBlocks = %d, want 56", p.ReplicaBlocks)
	}
	direct, err := New(AllToAll, Pairwise, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if direct.ReplicaBlocks != 0 {
		t.Errorf("pairwise all-to-all: ReplicaBlocks = %d, want 0", direct.ReplicaBlocks)
	}
	dbl, err := New(AllToAll, Doubling, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dbl.ReplicaBlocks != 32 {
		t.Errorf("doubling all-to-all: ReplicaBlocks = %d, want n/2 = 32", dbl.ReplicaBlocks)
	}
}

// TestBadSpecs is the table-driven error-path contract: malformed
// specs return ErrBadSpec with valid-name listings, never a panic.
func TestBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		do   func() error
	}{
		{"unknown op", func() error { _, err := ParseOp("gather"); return err }},
		{"unknown strategy", func() error { _, err := ParseStrategy("butterfly"); return err }},
		{"one node", func() error { _, err := New(Broadcast, Pairwise, 1, 0); return err }},
		{"zero nodes", func() error { _, err := New(AllToAll, Pairwise, 0, 0); return err }},
		{"negative nodes", func() error { _, err := New(Reduce, Doubling, -4, 0); return err }},
		{"over plan limit", func() error { _, err := New(AllToAll, Pairwise, MaxNodes+1, 0); return err }},
		{"doubling non-pow2 all-to-all", func() error { _, err := New(AllToAll, Doubling, 12, 0); return err }},
		{"doubling non-pow2 broadcast", func() error { _, err := New(Broadcast, Doubling, 6, 0); return err }},
		{"doubling non-pow2 shift", func() error { _, err := New(Shift, Doubling, 10, 1); return err }},
		{"doubling non-pow2 reduce", func() error { _, err := New(Reduce, Doubling, 24, 0); return err }},
		{"hyper-systolic prime", func() error { _, err := New(AllToAll, HyperSystolic, 13, 0); return err }},
		{"shift zero offset", func() error { _, err := New(Shift, Pairwise, 8, 0); return err }},
		{"shift full-cycle offset", func() error { _, err := New(Shift, Pairwise, 8, 16); return err }},
		{"bogus op constant", func() error { _, err := New(Op("scan"), Pairwise, 8, 0); return err }},
		{"bogus strategy constant", func() error { _, err := New(AllToAll, Strategy("ring"), 8, 0); return err }},
		{"zero words", func() error {
			p, err := New(AllToAll, Pairwise, 8, 0)
			if err != nil {
				return err
			}
			_, err = p.Evaluate(machine.T3D(), 0, false)
			return err
		}},
		{"more nodes than machine", func() error {
			p, err := New(AllToAll, Pairwise, 128, 0)
			if err != nil {
				return err
			}
			_, err = p.Evaluate(machine.T3D(), 64, false)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.do()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("error %v is not ErrBadSpec", err)
			}
		})
	}
}

// TestShiftOffsetNormalization: negative and wrapped offsets
// canonicalize to 1..n-1 and still validate.
func TestShiftOffsetNormalization(t *testing.T) {
	for _, st := range Strategies() {
		for _, off := range []int{1, 2, 5, 63, -1, 65, -63} {
			p, err := New(Shift, st, 64, off)
			if err != nil {
				t.Fatalf("shift/%s offset %d: %v", st, off, err)
			}
			want := ((off % 64) + 64) % 64
			if p.Offset != want {
				t.Errorf("shift/%s offset %d canonicalized to %d, want %d", st, off, p.Offset, want)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("shift/%s offset %d: %v", st, off, err)
			}
		}
	}
}

// TestEvaluateAnalyticMatchesEngine is the package-level differential
// contract: for every collective x strategy, the hybrid evaluator
// (closed-form streams on congestion-free phases) is bit-identical to
// forcing the event engine on every phase. The query layer repeats
// this across hierarchy levels.
func TestEvaluateAnalyticMatchesEngine(t *testing.T) {
	machines := []*machine.Machine{machine.T3D(), machine.Paragon(), machine.MulticoreCluster()}
	for _, m := range machines {
		for _, op := range allOps {
			for _, st := range Strategies() {
				for _, nodes := range []int{8, m.Nodes()} {
					p, err := New(op, st, nodes, 3)
					if err != nil {
						t.Fatalf("New(%s, %s, %d): %v", op, st, nodes, err)
					}
					hybrid, err := p.Evaluate(m, 256, false)
					if err != nil {
						t.Fatalf("%s: %s/%s hybrid: %v", m.Name, op, st, err)
					}
					ref, err := p.Evaluate(m, 256, true)
					if err != nil {
						t.Fatalf("%s: %s/%s engine: %v", m.Name, op, st, err)
					}
					if hybrid.MakespanNs != ref.MakespanNs {
						t.Errorf("%s: %s/%s over %d nodes: hybrid makespan %v != engine %v (analytic phases %d)",
							m.Name, op, st, nodes, hybrid.MakespanNs, ref.MakespanNs, hybrid.AnalyticPhases)
					}
					if hybrid.MaxCongestion != ref.MaxCongestion ||
						hybrid.Messages != ref.Messages ||
						hybrid.VolumeBlocks != ref.VolumeBlocks {
						t.Errorf("%s: %s/%s: scorecards diverge: %+v vs %+v", m.Name, op, st, hybrid, ref)
					}
					if ref.AnalyticPhases != 0 {
						t.Errorf("%s: %s/%s: engine run reported analytic phases", m.Name, op, st)
					}
				}
			}
		}
	}
}

// TestEngineAtThousandsOfFlows stress-tests the sim engine at the
// scale the collectives create: a full 64-node personalized exchange
// is 4032 concurrent flows through one Batch call, and the pairwise
// schedule pushes the same 4032 messages through 63 phases.
func TestEngineAtThousandsOfFlows(t *testing.T) {
	m := machine.T3D()
	flows := netsim.AllToAll(m.Nodes(), 2048)
	if len(flows) != 4032 {
		t.Fatalf("expected 4032 flows, got %d", len(flows))
	}
	net := netsim.MustNewNetwork(m.Topo, m.Net)
	_, unscheduled := net.Batch(0, flows, netsim.DataOnly)
	if unscheduled <= 0 {
		t.Fatal("unscheduled batch makespan not positive")
	}

	p, err := New(AllToAll, Pairwise, m.Nodes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := p.Evaluate(m, 256, true)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Messages != 4032 {
		t.Fatalf("pairwise 64-node all-to-all moved %d messages, want 4032", ev.Messages)
	}
	if ev.MakespanNs <= 0 {
		t.Fatal("scheduled makespan not positive")
	}
	// The scheduled exchange must keep per-phase congestion at the
	// structural minimum while the all-at-once exchange floods links.
	naive := netsim.CongestionOf(m.Topo, flows, m.Net.NodesPerPort)
	if ev.MaxCongestion*4 > naive {
		t.Errorf("scheduled congestion %.0f not far below naive %.0f", ev.MaxCongestion, naive)
	}
}

// TestCrossover pins the reason the comparator exists: on the same
// machine, recursive doubling wins small blocks (few phases amortize
// barrier+library overhead) while pairwise wins large blocks (minimal
// volume); the winner flips with message size.
func TestCrossover(t *testing.T) {
	m := machine.T3D()
	small, large := evalPair(t, m, 4), evalPair(t, m, 16384)
	if small.dbl >= small.pair {
		t.Errorf("small blocks: doubling %.0f ns should beat pairwise %.0f ns", small.dbl, small.pair)
	}
	if large.pair >= large.dbl {
		t.Errorf("large blocks: pairwise %.0f ns should beat doubling %.0f ns", large.pair, large.dbl)
	}
}

type pairDbl struct{ pair, dbl float64 }

func evalPair(t *testing.T, m *machine.Machine, words int) pairDbl {
	t.Helper()
	var out pairDbl
	for _, st := range []Strategy{Pairwise, Doubling} {
		p, err := New(AllToAll, st, m.Nodes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := p.Evaluate(m, words, false)
		if err != nil {
			t.Fatal(err)
		}
		if st == Pairwise {
			out.pair = ev.MakespanNs
		} else {
			out.dbl = ev.MakespanNs
		}
	}
	return out
}
