package netsim

// Flow is one point-to-point transfer of a traffic pattern.
type Flow struct {
	Src, Dst int
	Bytes    int64
}

// Shift returns the cyclic-shift traffic pattern (node i sends to node
// (i+offset) mod n), the paper's "next neighbor" communication.
func Shift(nodes int, offset int, bytes int64) []Flow {
	flows := make([]Flow, 0, nodes)
	for i := 0; i < nodes; i++ {
		dst := ((i+offset)%nodes + nodes) % nodes
		if dst == i {
			continue
		}
		flows = append(flows, Flow{Src: i, Dst: dst, Bytes: bytes})
	}
	return flows
}

// AllToAll returns the personalized all-to-all (complete exchange)
// pattern with bytes per pair.
func AllToAll(nodes int, bytes int64) []Flow {
	flows := make([]Flow, 0, nodes*(nodes-1))
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s != d {
				flows = append(flows, Flow{Src: s, Dst: d, Bytes: bytes})
			}
		}
	}
	return flows
}

// CongestionOf returns the congestion factor of a traffic pattern on a
// topology: the maximum, over all directed links and shared network
// ports, of the number of flows crossing it (flows are assumed
// equal-sized, the case in all of the paper's experiments). Shared ports
// (NodesPerPort > 1) count the injections and ejections of all nodes in
// the port group, which is what makes the T3D's minimum congestion two.
// The returned factor is at least 1 for a non-empty pattern.
func CongestionOf(topo Topology, flows []Flow, nodesPerPort int) float64 {
	if len(flows) == 0 {
		return 0
	}
	if nodesPerPort < 1 {
		nodesPerPort = 1
	}
	ports := (topo.Nodes() + nodesPerPort - 1) / nodesPerPort
	// One counter per directed link, then per injection and per
	// ejection port.
	load := make([]int, topo.Links()+2*ports)
	links, inj, ej := load[:topo.Links()], load[topo.Links():topo.Links()+ports], load[topo.Links()+ports:]
	var route []int
	max := 1
	count := func(c []int, i int) {
		c[i]++
		if c[i] > max {
			max = c[i]
		}
	}
	for _, f := range flows {
		route = topo.AppendRoute(route[:0], f.Src, f.Dst)
		for _, l := range route {
			count(links, l)
		}
		if f.Src != f.Dst {
			count(inj, f.Src/nodesPerPort)
			count(ej, f.Dst/nodesPerPort)
		}
	}
	return float64(max)
}
