package netsim

import (
	"fmt"

	"ctcomm/internal/sim"
)

// Network is the event-level simulator: it pushes chunked messages over
// the directed links of a topology, with per-link serialization, shared
// injection/ejection ports, and mode-dependent framing overhead. Chunks
// of concurrent messages in one Batch are interleaved round-robin; the
// paper notes that for a throughput-oriented model it is irrelevant
// whether data multiplexes per flit or per message (§4.3).
type Network struct {
	topo Topology
	cfg  Config
	// links holds the link resources by link id, inj and ej the
	// injection and ejection port resources by port number; one
	// allocation backs all three.
	links, inj, ej []sim.Resource
	// Scratch reused across calls: one pair's route, the resource
	// chains of a Batch's flows, their states and the arrival heap.
	route    []int
	paths    []*sim.Resource
	flows    []flowState
	arrivals arrivalHeap
}

// NewNetwork validates cfg and builds an idle network over topo. Its
// resources take memory in proportion to the topology's links and
// ports.
func NewNetwork(topo Topology, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := newNetwork(geometryOf(topo, &cfg))
	n.topo, n.cfg = topo, cfg
	return n, nil
}

// MustNewNetwork is NewNetwork for known-good configurations.
func MustNewNetwork(topo Topology, cfg Config) *Network {
	n, err := NewNetwork(topo, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// geometry is what fixes the sizes of a Network's resources: the
// topology's directed links and the network ports. Networks of one
// geometry differ only in the topology and configuration
// AcquireNetwork re-applies.
type geometry struct{ links, ports int }

func geometryOf(topo Topology, cfg *Config) geometry {
	return geometry{topo.Links(), (topo.Nodes() + cfg.NodesPerPort - 1) / cfg.NodesPerPort}
}

// newNetwork allocates the idle resources of geometry g; one
// allocation backs all three kinds.
func newNetwork(g geometry) *Network {
	res := make([]sim.Resource, g.links+2*g.ports)
	return &Network{
		links: res[:g.links],
		inj:   res[g.links : g.links+g.ports],
		ej:    res[g.links+g.ports:],
	}
}

// pool holds idle networks by geometry for AcquireNetwork.
var pool = sim.NewPool[geometry, *Network]()

// AcquireNetwork validates cfg and returns a network in exactly the
// state NewNetwork(topo, cfg) returns — every link and port idle and
// never claimed — reusing an idle network of the same geometry when the
// pool holds one. topo and cfg, its Stats and Hier included, are
// re-applied on every acquire, so results and Stats attribution are
// those of a fresh network. A caller that runs one evaluation and
// drops the network acquires it and hands it back with Release.
func AcquireNetwork(topo Topology, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := geometryOf(topo, &cfg)
	n, ok := pool.Get(g)
	if !ok {
		n = newNetwork(g)
	}
	n.topo, n.cfg = topo, cfg
	n.Reset()
	return n, nil
}

// Release hands n back to AcquireNetwork's pool. The caller must not
// use n afterwards.
func (n *Network) Release() {
	// An idle network keeps no caller's topology, Stats or Hier alive.
	n.topo, n.cfg = nil, Config{}
	pool.Put(geometry{len(n.links), len(n.inj)}, n)
}

// Reset returns all links and ports to idle and never claimed, in
// place. The scratch buffers keep their capacity; they hold nothing
// from one call to the next.
func (n *Network) Reset() {
	clear(n.links)
	clear(n.inj)
	clear(n.ej)
}

func (n *Network) link(id int) *sim.Resource { return &n.links[id] }

// nsPerByteFor converts the link bandwidth on the src->dst flow's
// hierarchy tier to ns per wire byte. Flat configurations use the
// single link rate (the exact pre-hierarchy float expression, so their
// simulated times stay bit-identical). Tier copy costs and startups
// deliberately do NOT enter the event simulation — they are endpoint
// model constants, folded in by Config.RateAt and the analytic layer —
// so SendStream's closed form and Batch remain mutually consistent.
func (n *Network) nsPerByteFor(src, dst int) float64 {
	if n.cfg.Hier == nil {
		return 1e3 / n.cfg.LinkMBps
	}
	return 1e3 / n.cfg.Hier.Level(n.cfg.Hier.LevelOf(src, dst)).LinkMBps
}

// appendPath appends the resource chain a message from src to dst
// traverses — injection port, route links, ejection port — to buf.
func (n *Network) appendPath(buf []*sim.Resource, src, dst int) []*sim.Resource {
	if nodes := n.topo.Nodes(); src < 0 || src >= nodes || dst < 0 || dst >= nodes {
		panic(fmt.Sprintf("netsim: flow %d->%d names a node outside %s's %d nodes", src, dst, n.topo.Name(), nodes))
	}
	n.route = n.topo.AppendRoute(n.route[:0], src, dst)
	buf = append(buf, &n.inj[src/n.cfg.NodesPerPort])
	for _, l := range n.route {
		buf = append(buf, n.link(l))
	}
	return append(buf, &n.ej[dst/n.cfg.NodesPerPort])
}

// path returns the resource chain from src to dst in the network's
// path buffer, valid until the next path or Batch call.
func (n *Network) path(src, dst int) []*sim.Resource {
	n.paths = n.appendPath(n.paths[:0], src, dst)
	return n.paths
}

// Send pushes one message and returns its delivery time. The payload is
// expanded to wire bytes per the mode's framing and cut into chunks that
// traverse the path store-and-forward; with the default small chunk size
// this approximates wormhole pipelining. Send delegates to SendStream.
func (n *Network) Send(at sim.Time, src, dst int, payload int64, mode Mode) sim.Time {
	return n.SendStream(at, src, dst, payload, mode)
}

// SendStream pushes one framed message stream and returns its delivery
// time. When the whole path is idle at time at — the overwhelmingly
// common case for the single-flow micro-benchmarks — the store-and-
// forward pipeline has a closed form, so the chunk-level event
// simulation is skipped: a message of c equal chunks over h hops is a
// uniform flow shop whose chunk completions are end(chunk,hop) =
// at + (chunk+1+hop)·d, with only the shorter final chunk handled
// iteratively. Delivery times, recorded statistics and per-resource
// accounting (free time, busy time, claim counts, first/last use) are
// identical to what Batch produces for the same single flow; any busy
// resource on the path falls back to Batch.
func (n *Network) SendStream(at sim.Time, src, dst int, payload int64, mode Mode) sim.Time {
	wire := n.cfg.WireBytes(mode, payload)
	if src == dst || wire == 0 {
		n.cfg.Stats.RecordEvents(0, 0)
		return at
	}
	path := n.path(src, dst)
	for _, r := range path {
		if r.FreeAt() > at {
			done, _ := n.Batch(at, []Flow{{Src: src, Dst: dst, Bytes: payload}}, mode)
			return done[0]
		}
	}

	chunkBytes := int64(n.cfg.ChunkBytes)
	perByte := n.nsPerByteFor(src, dst)
	chunks := (wire + chunkBytes - 1) / chunkBytes
	d := chunkDur(chunkBytes, perByte)
	dl := chunkDur(wire-(chunks-1)*chunkBytes, perByte)
	d0 := d
	if chunks == 1 {
		d0 = dl
	}

	// e is the completion time of the final chunk at the current hop;
	// full chunks complete at at + (chunk+1+hop)·d and never wait on the
	// final chunk, so per-hop state depends on e and the closed form only.
	e := at + sim.Time(chunks-1)*d + dl
	busy := sim.Time(chunks-1)*d + dl
	for h, r := range path {
		if h > 0 {
			// The final chunk arrives when it left the previous hop and
			// the hop frees after the preceding full chunk.
			prevFree := at + sim.Time(chunks-1+int64(h))*d
			if chunks == 1 {
				prevFree = 0
			}
			if prevFree > e {
				e = prevFree
			}
			e += dl
		}
		start0 := at + sim.Time(h)*d0 // first chunk starts the hop here
		r.ClaimBulk(chunks, start0, e, busy)
	}
	n.cfg.Stats.RecordEvents(chunks*int64(len(path)), e-at)
	return e
}

// Batch pushes a set of concurrent flows starting at time at and
// returns the per-flow delivery times and the overall makespan. Flows
// between identical nodes complete immediately.
//
// The simulation is event-driven store-and-forward at chunk
// granularity: every resource (injection port, link, ejection port)
// serves queued chunks first-come-first-served, a chunk advances to the
// next hop when its service there completes, and a flow's next chunk
// enters the injection port as soon as the previous one leaves it.
// With the default small chunk size this approximates wormhole
// pipelining while letting congestion emerge from real link contention.
//
// Pending chunk-hops wait by value in a min-heap ordered by (time,
// push number), so resources see claims in one deterministic total
// order and a chunk-hop allocates nothing; the network's scratch
// buffers keep a warm Batch down to the returned done slice.
func (n *Network) Batch(at sim.Time, flows []Flow, mode Mode) (done []sim.Time, makespan sim.Time) {
	done = make([]sim.Time, len(flows))
	makespan = at

	chunkBytes := int64(n.cfg.ChunkBytes)
	paths := n.paths[:0]
	states := n.flows[:0]
	h := n.arrivals[:0]
	var seq uint64
	for i, f := range flows {
		wire := n.cfg.WireBytes(mode, f.Bytes)
		if f.Src == f.Dst || wire == 0 {
			done[i] = at
			states = append(states, flowState{})
			continue
		}
		chunks := (wire + chunkBytes - 1) / chunkBytes
		perByte := n.nsPerByteFor(f.Src, f.Dst)
		from := len(paths)
		paths = n.appendPath(paths, f.Src, f.Dst)
		states = append(states, flowState{
			from:   from,
			hops:   int32(len(paths) - from),
			chunks: chunks,
			full:   chunkDur(chunkBytes, perByte),
			last:   chunkDur(wire-(chunks-1)*chunkBytes, perByte),
		})
		h.push(arrival{t: at, seq: seq, flow: int32(i)})
		seq++
	}

	var events int64
	for len(h) > 0 {
		a := h.pop()
		events++
		st := &states[a.flow]
		dur := st.full
		if a.chunk == st.chunks-1 {
			dur = st.last
		}
		_, end := paths[st.from+int(a.hop)].Claim(a.t, dur)
		if a.hop == 0 && a.chunk+1 < st.chunks {
			// The next chunk may enter the injection port once this one
			// left it.
			h.push(arrival{t: end, seq: seq, flow: a.flow, chunk: a.chunk + 1})
			seq++
		}
		if a.hop+1 < st.hops {
			h.push(arrival{t: end, seq: seq, flow: a.flow, hop: a.hop + 1, chunk: a.chunk})
			seq++
			continue
		}
		// Final hop: delivery.
		if end > done[a.flow] {
			done[a.flow] = end
		}
		if end > makespan {
			makespan = end
		}
	}
	n.paths, n.flows, n.arrivals = paths, states, h
	n.cfg.Stats.RecordEvents(events, makespan-at)
	return done, makespan
}

// chunkDur is the service time of a chunk of the given wire bytes at
// perByte ns per byte, rounded to the nearest ns and at least 1.
func chunkDur(bytes int64, perByte float64) sim.Time {
	d := sim.Time(float64(bytes)*perByte + 0.5)
	if d < 1 {
		d = 1
	}
	return d
}

// flowState is one flow of a Batch: its resource chain is
// paths[from:from+hops] (hops is 0 for a flow that sends nothing), and
// its chunks take full ns per hop, the final one last ns.
type flowState struct {
	from       int
	hops       int32
	chunks     int64
	full, last sim.Time
}

// arrival is one chunk of a flow reaching one hop of its path at time
// t; seq numbers arrivals in push order and breaks ties in t.
type arrival struct {
	t         sim.Time
	seq       uint64
	chunk     int64
	flow, hop int32
}

func (a *arrival) before(b *arrival) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// arrivalHeap is a binary min-heap of arrivals ordered by (t, seq).
// Keys are unique, so it pops every arrival in one total order.
type arrivalHeap []arrival

func (h *arrivalHeap) push(a arrival) {
	q := append(*h, a)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !a.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = a
	*h = q
}

// pop removes and returns the earliest arrival; the heap must be
// non-empty.
func (h *arrivalHeap) pop() arrival {
	q := *h
	top := q[0]
	last := q[len(q)-1]
	q = q[:len(q)-1]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if len(q) > 0 {
		q[i] = last
	}
	*h = q
	return top
}
