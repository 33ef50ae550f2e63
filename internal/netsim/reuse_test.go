package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"ctcomm/internal/sim"
)

// congestionMap is CongestionOf as it counted link loads before its
// dense per-link slice: in a map keyed by link id.
func congestionMap(topo Topology, flows []Flow, nodesPerPort int) float64 {
	if len(flows) == 0 {
		return 0
	}
	if nodesPerPort < 1 {
		nodesPerPort = 1
	}
	linkLoad := make(map[int]int)
	var route []int
	ports := (topo.Nodes() + nodesPerPort - 1) / nodesPerPort
	inj := make([]int, ports)
	ej := make([]int, ports)
	max := 1
	for _, f := range flows {
		route = topo.AppendRoute(route[:0], f.Src, f.Dst)
		for _, l := range route {
			linkLoad[l]++
			if linkLoad[l] > max {
				max = linkLoad[l]
			}
		}
		if f.Src != f.Dst {
			p := f.Src / nodesPerPort
			inj[p]++
			if inj[p] > max {
				max = inj[p]
			}
			q := f.Dst / nodesPerPort
			ej[q]++
			if ej[q] > max {
				max = ej[q]
			}
		}
	}
	return float64(max)
}

// reuseTopologies are tori and meshes of every shape the profiles use,
// degenerate ones among them, paired where two share a geometry.
func reuseTopologies() []Topology {
	return []Topology{
		Torus3D{4, 4, 4}, Torus3D{2, 8, 4}, Torus3D{1, 1, 4}, Torus3D{3, 5, 2},
		Mesh2D{8, 8}, Mesh2D{4, 16}, Mesh2D{1, 8}, Mesh2D{5, 3},
	}
}

// randomTraffic draws up to maxFlows flows over nodes, hot spots and
// self-sends among them.
func randomTraffic(r *rand.Rand, nodes, maxFlows int) []Flow {
	flows := make([]Flow, r.Intn(maxFlows+1))
	hot := r.Intn(nodes)
	for i := range flows {
		src, dst := r.Intn(nodes), r.Intn(nodes)
		switch r.Intn(6) {
		case 0:
			dst = src
		case 1:
			dst = hot
		}
		flows[i] = Flow{Src: src, Dst: dst, Bytes: int64(r.Intn(5000))}
	}
	return flows
}

// TestCongestionOfMatchesMap holds CongestionOf's per-link slice to the
// map it replaced, on random flows over every topology and port
// sharing.
func TestCongestionOfMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, topo := range reuseTopologies() {
		for perPort := 0; perPort <= 4; perPort++ {
			for trial := 0; trial < 40; trial++ {
				flows := randomTraffic(r, topo.Nodes(), 3*topo.Nodes())
				got, want := CongestionOf(topo, flows, perPort), congestionMap(topo, flows, perPort)
				if got != want {
					t.Fatalf("%s, %d nodes per port, flows %v: congestion %v, map version %v", topo.Name(), perPort, flows, got, want)
				}
			}
		}
	}
}

// TestLinkLoadPhasesMatchCongestionOf: one LinkLoad counting phase
// after phase, reset between them, reads each phase's CongestionOf, and
// a whole sequence costs the one buffer NewLinkLoad allocates.
func TestLinkLoadPhasesMatchCongestionOf(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, topo := range reuseTopologies() {
		for perPort := 0; perPort <= 4; perPort++ {
			phases := make([][]Flow, 12)
			for i := range phases {
				phases[i] = randomTraffic(r, topo.Nodes(), r.Intn(3*topo.Nodes()))
			}
			count := func(l *LinkLoad) []float64 {
				got := make([]float64, 0, len(phases))
				for _, flows := range phases {
					l.Reset()
					for _, f := range flows {
						l.Add(f.Src, f.Dst)
					}
					got = append(got, l.Congestion())
				}
				return got
			}
			for i, got := range count(NewLinkLoad(topo, perPort)) {
				if want := CongestionOf(topo, phases[i], perPort); got != want {
					t.Fatalf("%s, %d nodes per port, phase %d: LinkLoad %v, CongestionOf %v", topo.Name(), perPort, i, got, want)
				}
			}
			if allocs := testing.AllocsPerRun(3, func() { count(NewLinkLoad(topo, perPort)) }); allocs > 3 {
				t.Errorf("%s: %d phases allocate %v times, want the result, the counter and its buffer", topo.Name(), len(phases), allocs)
			}
		}
	}
}

// TestAcquireNetworkAppliesTopologyAndConfig pins what the pool
// re-applies: a network handed back after traffic and acquired again
// over another topology and configuration of the same geometry is in
// exactly the state NewNetwork returns, runs like it, and records into
// the new caller's Stats alone.
func TestAcquireNetworkAppliesTopologyAndConfig(t *testing.T) {
	base := testNetConfig()
	faster, framed := base, base
	faster.LinkMBps, faster.ChunkBytes = 300, 256
	framed.PacketHeaderBytes, framed.HopLatencyNs = 32, 5
	r := rand.New(rand.NewSource(2))
	var prev *Network
	var prevStats *sim.Stats
	for i, c := range []struct {
		topo Topology
		cfg  Config
	}{
		{Torus3D{4, 4, 4}, base}, {Torus3D{2, 8, 4}, faster}, {Torus3D{4, 8, 2}, framed},
	} {
		st := new(sim.Stats)
		c.cfg.Stats = st
		n, err := AcquireNetwork(c.topo, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && n != prev {
			t.Fatalf("case %d: the pool did not hand back the network released just before", i)
		}
		fresh := MustNewNetwork(c.topo, c.cfg)
		if n.topo != fresh.topo || !reflect.DeepEqual(n.cfg, fresh.cfg) ||
			!reflect.DeepEqual(n.links, fresh.links) || !reflect.DeepEqual(n.inj, fresh.inj) || !reflect.DeepEqual(n.ej, fresh.ej) {
			t.Fatalf("case %d: acquired network differs from NewNetwork's", i)
		}
		before := prevStats.Events()
		ref := c.cfg
		ref.Stats = new(sim.Stats)
		fresh = MustNewNetwork(c.topo, ref)
		for round := 0; round < 3; round++ {
			flows := randomTraffic(r, c.topo.Nodes(), 40)
			gotDone, gotEnd := n.Batch(sim.Time(round*1000), flows, Mode(round%2))
			wantDone, wantEnd := fresh.Batch(sim.Time(round*1000), flows, Mode(round%2))
			if gotEnd != wantEnd || !reflect.DeepEqual(gotDone, wantDone) {
				t.Fatalf("case %d round %d: Batch on the acquired network diverged from a fresh one", i, round)
			}
		}
		if st.Events() == 0 || st.Events() != ref.Stats.Events() {
			t.Errorf("case %d: the caller's Stats counted %d events, a fresh network's %d", i, st.Events(), ref.Stats.Events())
		}
		if prevStats.Events() != before {
			t.Errorf("case %d: the previous caller's Stats kept counting", i)
		}
		n.Release()
		if n.topo != nil || n.cfg.Stats != nil {
			t.Errorf("case %d: an idle network keeps its last caller's topology or Stats alive", i)
		}
		prev, prevStats = n, st
	}
}
