package netsim

import "ctcomm/internal/sim"

// BatchCircuit simulates the same flow set as Batch under a blocking
// wormhole approximation: a message occupies every link of its path for
// its entire duration (as a blocked wormhole worm does), so two
// messages sharing any link serialize completely. This is the regime in
// which the paper's scheduled AAPC pays off in *makespan*, not just in
// bounded congestion: the store-and-forward chunk model of Batch
// multiplexes hot links fairly, but blocking wormhole hardware does
// not.
//
// Messages are admitted in arrival order (all at time at here), each
// starting as soon as every resource on its path is free.
func (n *Network) BatchCircuit(at sim.Time, flows []Flow, mode Mode) (done []sim.Time, makespan sim.Time) {
	done = make([]sim.Time, len(flows))
	makespan = at
	for i, f := range flows {
		wire := n.cfg.WireBytes(mode, f.Bytes)
		if f.Src == f.Dst || wire == 0 {
			done[i] = at
			continue
		}
		path := n.path(f.Src, f.Dst)
		dur := chunkDur(wire, n.nsPerByteFor(f.Src, f.Dst))
		// The worm advances only when the whole path is free.
		start := at
		for _, r := range path {
			if r.FreeAt() > start {
				start = r.FreeAt()
			}
		}
		end := start + dur
		// start is at or beyond every resource's FreeAt, so each claim
		// occupies exactly [start, end).
		for _, r := range path {
			r.Claim(start, dur)
		}
		done[i] = end
		if end > makespan {
			makespan = end
		}
	}
	// The circuit approximation dispatches no discrete events (one claim
	// per message is computed directly); record one "event" per admitted
	// message so the work still shows up in run statistics.
	n.cfg.Stats.RecordEvents(int64(len(flows)), makespan-at)
	return done, makespan
}
