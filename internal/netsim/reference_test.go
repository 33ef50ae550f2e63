package netsim

import (
	"container/heap"

	"ctcomm/internal/sim"
)

// This file keeps the event engine Batch ran on before its typed
// arrival heap: one closure and one *event per chunk-hop, ordered by
// container/heap over (time, schedule number). The differential tests
// hold the heap engine to it exactly.

// refEvent is one scheduled callback of the reference engine.
type refEvent struct {
	at  sim.Time
	seq uint64
	fn  func()
}

// refQueue is a container/heap min-heap over (at, seq).
type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}

// refEngine runs scheduled callbacks in (time, schedule order).
type refEngine struct {
	now        sim.Time
	seq        uint64
	dispatched int64
	queue      refQueue
}

func (e *refEngine) schedule(at sim.Time, fn func()) {
	if at < e.now {
		panic("netsim: reference engine scheduled an event in the past")
	}
	e.seq++
	heap.Push(&e.queue, &refEvent{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) run() {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		e.now = ev.at
		e.dispatched++
		ev.fn()
	}
}

// BatchReference is Batch on the reference engine, with each flow's
// resource chain built from Topology.Route. It claims the same network
// resources and records into the same Stats.
func (n *Network) BatchReference(at sim.Time, flows []Flow, mode Mode) (done []sim.Time, makespan sim.Time) {
	done = make([]sim.Time, len(flows))
	makespan = at

	type flowState struct {
		path      []*sim.Resource
		chunks    int64
		lastBytes int64
		perByte   float64
	}
	type arrival struct {
		flow, hop int
		chunk     int64
	}
	states := make([]*flowState, len(flows))
	chunkBytes := int64(n.cfg.ChunkBytes)
	for i, f := range flows {
		wire := n.cfg.WireBytes(mode, f.Bytes)
		if f.Src == f.Dst || wire == 0 {
			done[i] = at
			continue
		}
		path := []*sim.Resource{&n.inj[f.Src/n.cfg.NodesPerPort]}
		for _, l := range n.topo.Route(f.Src, f.Dst) {
			path = append(path, &n.links[l])
		}
		chunks := (wire + chunkBytes - 1) / chunkBytes
		states[i] = &flowState{
			path:      append(path, &n.ej[f.Dst/n.cfg.NodesPerPort]),
			chunks:    chunks,
			lastBytes: wire - (chunks-1)*chunkBytes,
			perByte:   n.nsPerByteFor(f.Src, f.Dst),
		}
	}
	durOf := func(st *flowState, chunk int64) sim.Time {
		bytes := chunkBytes
		if chunk == st.chunks-1 {
			bytes = st.lastBytes
		}
		d := sim.Time(float64(bytes)*st.perByte + 0.5)
		if d < 1 {
			d = 1
		}
		return d
	}

	eng := &refEngine{}
	var deliver func(a arrival)
	deliver = func(a arrival) {
		st := states[a.flow]
		_, end := st.path[a.hop].Claim(eng.now, durOf(st, a.chunk))
		if a.hop == 0 && a.chunk+1 < st.chunks {
			next := arrival{flow: a.flow, hop: 0, chunk: a.chunk + 1}
			eng.schedule(end, func() { deliver(next) })
		}
		if a.hop+1 < len(st.path) {
			nxt := arrival{flow: a.flow, hop: a.hop + 1, chunk: a.chunk}
			eng.schedule(end, func() { deliver(nxt) })
			return
		}
		if end > done[a.flow] {
			done[a.flow] = end
		}
		if end > makespan {
			makespan = end
		}
	}
	for i, st := range states {
		if st != nil {
			first := arrival{flow: i}
			eng.schedule(at, func() { deliver(first) })
		}
	}
	eng.run()
	n.cfg.Stats.RecordEvents(eng.dispatched, makespan-at)
	return done, makespan
}

// ResourcesForTest returns the network's link, injection-port and
// ejection-port resources, indexed by link id and port number.
func (n *Network) ResourcesForTest() (links, inj, ej []sim.Resource) {
	return n.links, n.inj, n.ej
}
