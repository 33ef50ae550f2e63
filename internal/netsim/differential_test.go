package netsim_test

import (
	"math/rand"
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
	"ctcomm/internal/sim"
)

// diffMachines are the networks the differential tests drive: every
// built-in profile (the hierarchical ones included, with their shared
// NIC ports) plus sized tori and meshes, degenerate ones among them.
func diffMachines(t testing.TB) []*machine.Machine {
	ms := machine.AllProfiles()
	for _, dims := range [][3]int{{2, 8, 8}, {1, 1, 4}, {3, 5, 2}} {
		m, err := machine.T3DSized(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	for _, dims := range [][2]int{{16, 4}, {1, 8}, {5, 3}} {
		m, err := machine.ParagonSized(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// randomFlows draws up to maxFlows flows over nodes, with self-sends,
// zero-byte flows and neighbours that share a port among them.
func randomFlows(r *rand.Rand, nodes, maxFlows int) []netsim.Flow {
	flows := make([]netsim.Flow, r.Intn(maxFlows+1))
	for i := range flows {
		src := r.Intn(nodes)
		dst := r.Intn(nodes)
		switch r.Intn(8) {
		case 0:
			dst = src
		case 1:
			dst = src ^ 1 // the other node of a T3D port pair
			if dst >= nodes {
				dst = src
			}
		}
		bytes := int64(r.Intn(6000))
		switch r.Intn(8) {
		case 0:
			bytes = 0
		case 1:
			bytes = int64(r.Intn(1 << 16))
		}
		flows[i] = netsim.Flow{Src: src, Dst: dst, Bytes: bytes}
	}
	return flows
}

// checkBatchMatchesReference runs rounds of random batches on two
// networks of m, one per engine, each round starting at a random time
// that may fall before or after the previous round's makespan, and
// requires identical done times, makespans, statistics and resource
// states after every round.
func checkBatchMatchesReference(t *testing.T, m *machine.Machine, seed int64, rounds int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var sa, sb sim.Stats
	cfgA, cfgB := m.Net, m.Net
	cfgA.Stats, cfgB.Stats = &sa, &sb
	heapNet := netsim.MustNewNetwork(m.Topo, cfgA)
	refNet := netsim.MustNewNetwork(m.Topo, cfgB)
	at := sim.Time(r.Int63n(1e6))
	for round := 0; round < rounds; round++ {
		flows := randomFlows(r, m.Nodes(), 48)
		mode := netsim.Mode(r.Intn(2))
		gotDone, gotEnd := heapNet.Batch(at, flows, mode)
		wantDone, wantEnd := refNet.BatchReference(at, flows, mode)
		if gotEnd != wantEnd {
			t.Fatalf("%s seed %d round %d: makespan %v, reference %v (flows %v)", m.Name, seed, round, gotEnd, wantEnd, flows)
		}
		for i := range wantDone {
			if gotDone[i] != wantDone[i] {
				t.Fatalf("%s seed %d round %d: flow %d %+v done %v, reference %v", m.Name, seed, round, i, flows[i], gotDone[i], wantDone[i])
			}
		}
		if sa.Events() != sb.Events() || sa.SimTime() != sb.SimTime() {
			t.Fatalf("%s seed %d round %d: stats events %d/%d sim time %v/%v", m.Name, seed, round, sa.Events(), sb.Events(), sa.SimTime(), sb.SimTime())
		}
		compareResources(t, heapNet, refNet)
		at = wantEnd - sim.Time(r.Int63n(int64(wantEnd-at)+1))
	}
}

func compareResources(t *testing.T, got, want *netsim.Network) {
	t.Helper()
	gl, gi, ge := got.ResourcesForTest()
	wl, wi, we := want.ResourcesForTest()
	for _, kind := range []struct {
		name      string
		got, want []sim.Resource
	}{{"link", gl, wl}, {"inj", gi, wi}, {"ej", ge, we}} {
		for id := range kind.want {
			g, w := &kind.got[id], &kind.want[id]
			if g.FreeAt() != w.FreeAt() || g.Busy() != w.Busy() || g.Claims() != w.Claims() ||
				g.Utilization() != w.Utilization() || *g != *w {
				t.Fatalf("%s%d: {free %v busy %v claims %d util %v} != reference {%v %v %d %v}", kind.name, id,
					g.FreeAt(), g.Busy(), g.Claims(), g.Utilization(), w.FreeAt(), w.Busy(), w.Claims(), w.Utilization())
			}
		}
	}
}

// TestBatchMatchesReference holds Batch's arrival heap to the closure
// and container/heap engine it replaced on every differential machine.
func TestBatchMatchesReference(t *testing.T) {
	for _, m := range diffMachines(t) {
		for seed := int64(1); seed <= 4; seed++ {
			checkBatchMatchesReference(t, m, seed, 4)
		}
	}
}

// FuzzBatchMatchesReference is TestBatchMatchesReference over
// fuzz-chosen machines and seeds.
func FuzzBatchMatchesReference(f *testing.F) {
	ms := diffMachines(f)
	for i := range ms {
		f.Add(uint8(i), int64(i)*7919)
	}
	f.Fuzz(func(t *testing.T, machineIdx uint8, seed int64) {
		checkBatchMatchesReference(t, ms[int(machineIdx)%len(ms)], seed, 3)
	})
}
