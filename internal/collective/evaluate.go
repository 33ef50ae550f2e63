package collective

import (
	"fmt"

	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
	"ctcomm/internal/sim"
	"ctcomm/internal/syncsim"
)

// Eval is the comparator's per-strategy scorecard.
type Eval struct {
	// Phases is the number of synchronized phases in the schedule.
	Phases int
	// Messages is the total message count across all phases.
	Messages int64
	// VolumeBlocks is the total number of blocks moved (messages
	// weighted by their per-phase block multiplier).
	VolumeBlocks int64
	// MaxCongestion is the worst phase congestion factor on the
	// machine's topology (including shared-port effects).
	MaxCongestion float64
	// ReplicaBlocks / ReplicaBytes surface the staging storage the
	// strategy needs per node beyond its own payload.
	ReplicaBlocks int64
	ReplicaBytes  int64
	// MakespanNs is the end-to-end completion time: phases run back
	// to back, separated by the machine's best barrier plus library
	// call overhead. An n-phase plan pays exactly n-1 separators —
	// nothing runs after the last phase, so nothing is synchronized
	// after it either.
	MakespanNs float64
	// AnalyticPhases counts phases answered by the closed-form stream
	// law; EnginePhases counts phases that ran the event engine. The
	// split is provenance only — both paths are bit-identical (see
	// the differential test).
	AnalyticPhases int
	EnginePhases   int
}

// Evaluate times the plan on machine m with blocks of `words` 64-bit
// words. Phases are separated by the machine's cheapest barrier
// (syncsim.Best) plus its library-call overhead, so strategies with
// fewer phases amortize synchronization — the source of the
// crossover between phase-light and volume-light schedules. An
// n-phase plan pays exactly n-1 separators: the overhead is charged
// between phases, never after the final one (pinned by
// TestMakespanCountsSeparators).
//
// Resource-disjoint phases (congestion factor 1: no two flows share a
// link or port) are answered analytically with SendStream's closed
// form, which performs resource accounting identical to the event
// engine; congested phases, and every phase when engine is true, run
// the full netsim event engine. The two paths are bit-identical by
// construction and pinned by TestEvaluateAnalyticMatchesEngine.
func (p *Plan) Evaluate(m *machine.Machine, words int, engine bool) (Eval, error) {
	if words <= 0 {
		return Eval{}, badf("words per block must be positive, got %d", words)
	}
	if p.Nodes > m.Nodes() {
		return Eval{}, badf("%s over %d nodes exceeds %s's %d nodes", p.Op, p.Nodes, m.Name, m.Nodes())
	}
	costs := p.machineCosts(m)
	if costs.err != nil {
		return Eval{}, costs.err
	}
	net, err := netsim.AcquireNetwork(m.Topo, m.Net)
	if err != nil {
		return Eval{}, err
	}
	defer net.Release()
	bytesPerBlock := int64(words) * pattern.WordBytes
	// One flow buffer, sized for the largest phase, serves every phase.
	widest := 0
	for _, ph := range p.Schedule.Phases {
		widest = max(widest, len(ph))
	}
	flows := make([]netsim.Flow, 0, widest)

	ev := Eval{
		Phases:        len(p.Schedule.Phases),
		ReplicaBlocks: p.ReplicaBlocks,
		ReplicaBytes:  p.ReplicaBlocks * bytesPerBlock,
	}
	var t sim.Time
	for pi := range p.Schedule.Phases {
		flows = p.Schedule.AppendPhaseFlows(flows[:0], pi, bytesPerBlock)
		ev.Messages += int64(len(flows))
		ev.VolumeBlocks += int64(len(flows)) * p.Schedule.BlocksAt(pi)
		cong := costs.congestion[pi]
		if cong > ev.MaxCongestion {
			ev.MaxCongestion = cong
		}
		var end sim.Time
		if !engine && cong == 1 {
			// No two flows of this phase share any link or port, so
			// streaming them one at a time through the closed form
			// claims exactly what one Batch over all of them would.
			end = t
			for _, f := range flows {
				if e := net.SendStream(t, f.Src, f.Dst, f.Bytes, netsim.DataOnly); e > end {
					end = e
				}
			}
			ev.AnalyticPhases++
		} else {
			_, end = net.Batch(t, flows, netsim.DataOnly)
			ev.EnginePhases++
		}
		t = end
		if pi < len(p.Schedule.Phases)-1 {
			// A separator only runs between phases: the collective is
			// done when its last flow lands, so an n-phase plan pays
			// n-1 barrier+library overheads, not n.
			t += costs.separator
		}
	}
	ev.MakespanNs = float64(t)
	return ev, nil
}

// planCosts are a plan's words-invariant costs on one machine.
type planCosts struct {
	congestion []float64 // per phase, as aapc.Schedule.PhaseCongestion
	separator  sim.Time  // best barrier plus library-call overhead
	err        error     // the barrier model's rejection, if any
}

// machineCosts returns the plan's words-invariant costs on m, computed
// once per (plan, machine) and cached on the plan: PhaseCongestion
// counts every phase's flows per link, injection and ejection port in
// one counter buffer and never looks at flow sizes, and the separator depends on the machine and node count
// alone, so the words-law probes and every word count of a sweep share
// one computation. Safe for concurrent evaluators.
func (p *Plan) machineCosts(m *machine.Machine) planCosts {
	return p.costs.Get(m, func() planCosts {
		barrier, _, err := syncsim.Best(m, p.Nodes)
		if err != nil {
			return planCosts{err: fmt.Errorf("%w: %v", ErrBadSpec, err)}
		}
		return planCosts{
			congestion: p.Schedule.PhaseCongestion(m.Topo, m.Net.NodesPerPort),
			separator:  sim.Time(barrier + m.LibOverheadNs),
		}
	})
}
