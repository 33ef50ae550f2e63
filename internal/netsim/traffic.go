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
// The returned factor is at least 1 for a non-empty pattern. A caller
// that prices phase after phase counts them in one LinkLoad instead.
func CongestionOf(topo Topology, flows []Flow, nodesPerPort int) float64 {
	l := NewLinkLoad(topo, nodesPerPort)
	for _, f := range flows {
		l.Add(f.Src, f.Dst)
	}
	return l.Congestion()
}

// LinkLoad counts the flows of a sequence of traffic phases, one phase
// at a time, in a single counter buffer: one counter per directed link,
// then one per injection and one per ejection port. Reset starts the
// next phase in the same buffer, so pricing a plan's phases allocates
// one buffer, not one per phase. Flow sizes never matter: congestion
// counts flows (CongestionOf).
type LinkLoad struct {
	topo         Topology
	nodesPerPort int
	inj, ej      int // where the injection and ejection counters start
	load         []int
	route        []int
	flows, max   int
}

// NewLinkLoad returns an empty counter for phases on topo with
// nodesPerPort nodes sharing each network port (values below 1 mean 1).
func NewLinkLoad(topo Topology, nodesPerPort int) *LinkLoad {
	if nodesPerPort < 1 {
		nodesPerPort = 1
	}
	ports := (topo.Nodes() + nodesPerPort - 1) / nodesPerPort
	// One allocation holds the counters and, past them, room for a
	// route of as many links as there are nodes, which no minimal
	// route exceeds.
	links := topo.Links()
	counters := links + 2*ports
	buf := make([]int, counters+topo.Nodes())
	return &LinkLoad{topo: topo, nodesPerPort: nodesPerPort, inj: links, ej: links + ports,
		load: buf[:counters], route: buf[counters:counters], max: 1}
}

// Reset empties the counters for the next phase.
func (l *LinkLoad) Reset() {
	clear(l.load)
	l.flows, l.max = 0, 1
}

// Add counts one flow from src to dst in the current phase: every
// directed link of its route and, unless it stays on its node, the
// injection port of src and the ejection port of dst.
func (l *LinkLoad) Add(src, dst int) {
	l.flows++
	l.route = l.topo.AppendRoute(l.route[:0], src, dst)
	for _, link := range l.route {
		l.count(link)
	}
	if src != dst {
		l.count(l.inj + src/l.nodesPerPort)
		l.count(l.ej + dst/l.nodesPerPort)
	}
}

func (l *LinkLoad) count(i int) {
	l.load[i]++
	if l.load[i] > l.max {
		l.max = l.load[i]
	}
}

// Congestion returns the current phase's congestion factor, as
// CongestionOf of the flows added since the last Reset: 0 for an empty
// phase, else at least 1.
func (l *LinkLoad) Congestion() float64 {
	if l.flows == 0 {
		return 0
	}
	return float64(l.max)
}
