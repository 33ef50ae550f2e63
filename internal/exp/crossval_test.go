package exp

// Cross-validation between the two network models: the analytic
// congestion-divided rates the copy-transfer model uses, and the
// event-level link simulator with real per-link serialization. For a
// network-bound operation (the chained transpose's Nadp stream) the two
// must agree — this is the internal consistency check that the paper's
// "congestion 2" shortcut (§4.3) is sound for scheduled traffic.

import (
	"testing"

	"ctcomm/internal/aapc"
	"ctcomm/internal/comm"
	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
	"ctcomm/internal/sim"
)

func TestEventNetworkMatchesAnalyticChainedTranspose(t *testing.T) {
	m := machine.T3D()
	nodes := m.Nodes()
	const patchWords = 4096 // one 16x16-complex patch would be 512; use bigger for steady state

	// Analytic: the chained transpose operation, network-bound at
	// Nadp @ congestion 2.
	res, err := comm.Run(m, comm.Chained, pattern.Contig(), pattern.Strided(1024), comm.Options{
		Words:      patchWords,
		Congestion: comm.CongestionFor(m, comm.AllToAllPattern),
		Duplex:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	analyticNs := res.ElapsedNs * float64(nodes-1)

	// Event-level: the same traffic as a phase-scheduled complete
	// exchange of address-data-pair messages on the simulated links.
	sched, err := aapc.XOR(nodes)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.MustNewNetwork(m.Topo, m.Net)
	var makespan sim.Time
	for pi := range sched.Phases {
		_, makespan = net.Batch(makespan, sched.PhaseFlows(pi, patchWords*8), netsim.AddrData)
	}
	eventNs := float64(makespan)

	ratio := eventNs / analyticNs
	if ratio < 0.6 || ratio > 1.4 {
		t.Errorf("event-level transpose %.0f us vs analytic %.0f us (ratio %.2f): "+
			"the congestion-2 shortcut should hold for scheduled traffic",
			eventNs/1e3, analyticNs/1e3, ratio)
	}
}

func TestEventNetworkShiftAgreesWithCongestionModel(t *testing.T) {
	// One cyclic shift of large messages: per-flow rate on the event
	// network must approach Rate(mode, congestionOf(shift)).
	for _, m := range machine.Profiles() {
		nodes := m.Nodes()
		flows := netsim.Shift(nodes, 1, 1<<19)
		cong := netsim.CongestionOf(m.Topo, flows, m.Net.NodesPerPort)
		net := netsim.MustNewNetwork(m.Topo, m.Net)
		done, _ := net.Batch(0, flows, netsim.DataOnly)
		// The slowest flow sets the effective rate.
		var worst float64
		for _, d := range done {
			rate := float64(1<<19) * 1e3 / float64(d)
			if worst == 0 || rate < worst {
				worst = rate
			}
		}
		want := m.Net.Rate(netsim.DataOnly, cong)
		if worst < want*0.85 || worst > want*1.15 {
			t.Errorf("%s: event shift rate %.1f vs analytic %.1f MB/s (congestion %.0f)",
				m.Name, worst, want, cong)
		}
	}
}
