package distrib

import (
	"testing"

	"ctcomm/internal/comm"
	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
)

func planBlockCyclic(t *testing.T, n, p int) []Transfer {
	t.Helper()
	src, err := NewBlock(n, p)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewCyclic(n, p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestExecuteEmptyPlan(t *testing.T) {
	rep, err := Execute(machine.T3D(), nil, ExecuteOptions{Style: comm.Chained})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != 0 || rep.PayloadBytes != 0 {
		t.Errorf("empty plan produced traffic: %+v", rep)
	}
}

func TestExecuteReportsTraffic(t *testing.T) {
	plan := planBlockCyclic(t, 4096, 16)
	rep, err := Execute(machine.T3D(), plan, ExecuteOptions{Style: comm.BufferPacking})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != len(plan) {
		t.Errorf("messages = %d, want %d", rep.Messages, len(plan))
	}
	if rep.MBps() <= 0 {
		t.Error("rate must be positive")
	}
}

func TestExecuteChainedBeatsPackedForBlockCyclic(t *testing.T) {
	// The BLOCK <-> CYCLIC redistribution is the canonical strided
	// workload (paper §2.2); chaining must win on the T3D.
	plan := planBlockCyclic(t, 1<<15, 16)
	m := machine.T3D()
	packed, err := Execute(m, plan, ExecuteOptions{Style: comm.BufferPacking})
	if err != nil {
		t.Fatal(err)
	}
	chained, err := Execute(m, plan, ExecuteOptions{Style: comm.Chained})
	if err != nil {
		t.Fatal(err)
	}
	if chained.MBps() <= packed.MBps() {
		t.Errorf("chained %.1f <= packed %.1f MB/s", chained.MBps(), packed.MBps())
	}
}

func TestExecuteChainedFallsBackOnParagon(t *testing.T) {
	// The Paragon co-processor can chain; with it disabled, the chained
	// style must silently fall back to buffer packing per transfer
	// (the DMA deposit cannot parse address-data pairs).
	m := machine.Paragon()
	m.CoProcessor = false
	plan := planBlockCyclic(t, 4096, 16)
	chained, err := Execute(m, plan, ExecuteOptions{Style: comm.Chained})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Execute(m, plan, ExecuteOptions{Style: comm.BufferPacking})
	if err != nil {
		t.Fatal(err)
	}
	if diff := chained.MBps() - packed.MBps(); diff > 0.01 || diff < -0.01 {
		t.Errorf("fallback chained %.2f != packed %.2f", chained.MBps(), packed.MBps())
	}
}

func TestExecuteBarrierOptions(t *testing.T) {
	plan := planBlockCyclic(t, 1024, 4)
	m := machine.T3D()
	with, err := Execute(m, plan, ExecuteOptions{Style: comm.Chained})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Execute(m, plan, ExecuteOptions{Style: comm.Chained, BarrierNs: -1})
	if err != nil {
		t.Fatal(err)
	}
	if with.ElapsedNs <= without.ElapsedNs {
		t.Error("barrier should add time")
	}
}

// shiftPlan returns a plan of procs processors in which every processor
// sends words contiguous words to each of the next phases processors:
// phases shift phases of one transfer shape.
func shiftPlan(procs, phases, words int) []Transfer {
	var plan []Transfer
	for from := 0; from < procs; from++ {
		for k := 1; k <= phases; k++ {
			plan = append(plan, Transfer{From: from, To: (from + k) % procs,
				Src: pattern.Contig(), Dst: pattern.Contig(), words: words})
		}
	}
	return plan
}

// TestExecuteRejectsHandBuiltTransfer: a Transfer written as a literal
// outside the planners carries no words, and Execute refuses to price it.
func TestExecuteRejectsHandBuiltTransfer(t *testing.T) {
	plan := append(shiftPlan(4, 1, 8), Transfer{From: 0, To: 2, Src: pattern.Contig(), Dst: pattern.Contig()})
	if _, err := Execute(machine.T3D(), plan, ExecuteOptions{Style: comm.BufferPacking}); err == nil {
		t.Error("Execute priced a transfer of zero words")
	}
}

// TestExecuteAllocsIndependentOfPhases: Execute counts every shift
// phase in one link-load buffer, so pricing a one-phase plan and a
// fifteen-phase plan of the same transfer shape allocates the same.
func TestExecuteAllocsIndependentOfPhases(t *testing.T) {
	m := machine.T3D()
	few, many := shiftPlan(16, 1, 64), shiftPlan(16, 15, 64)
	var allocs [2]float64
	for i, plan := range [][]Transfer{few, many} {
		allocs[i] = testing.AllocsPerRun(5, func() {
			if _, err := Execute(m, plan, ExecuteOptions{Style: comm.BufferPacking}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Execute allocates %v at one phase, %v at fifteen", allocs[0], allocs[1])
	}
}

// TestCongestionMatchesPerPhaseFlows: the one-buffer phase count equals
// CongestionOf over each shift phase's flows built separately.
func TestCongestionMatchesPerPhaseFlows(t *testing.T) {
	for _, m := range machine.Profiles() {
		for _, plan := range [][]Transfer{
			planBlockCyclic(t, 4096, 16), planBlockCyclic(t, 1024, 3), shiftPlan(24, 5, 8),
		} {
			nodes := m.Nodes()
			phases := map[int][]netsim.Flow{}
			for _, tr := range plan {
				from, to := tr.From%nodes, tr.To%nodes
				k := ((to-from)%nodes + nodes) % nodes
				phases[k] = append(phases[k], netsim.Flow{Src: from, Dst: to, Bytes: int64(tr.Words()) * 8})
			}
			want := 1.0
			for _, flows := range phases {
				want = max(want, netsim.CongestionOf(m.Topo, flows, m.Net.NodesPerPort))
			}
			if got := Congestion(m, plan); got != want {
				t.Errorf("%s, %d transfers: congestion %v, per-phase flows %v", m.Name, len(plan), got, want)
			}
		}
	}
}
