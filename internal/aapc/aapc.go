// Package aapc implements schedules for all-to-all personalized
// communication (complete exchange), the dense traffic pattern of the
// paper's transpose workloads. Paper §4.3 asserts — citing the AAPC
// scheduling work of Hinrichs et al. [8] — that "even dense patterns
// like the complete exchange ... can be scheduled with minimal
// congestion on T3D tori of up to 1024 compute nodes"; this package
// provides two such phase schedules and the machinery to verify their
// congestion on a topology and to simulate their makespan on the
// event-level network.
package aapc

import (
	"fmt"

	"ctcomm/internal/netsim"
	"ctcomm/internal/sim"
)

// Pair is one ordered exchange of a phase.
type Pair struct {
	Src, Dst int
}

// Schedule is an ordered sequence of phases; within a phase every node
// sends at most one message and receives at most one message, so the
// phases can run back to back with a barrier between them.
//
// Schedule is the shared phase-schedule substrate: the AAPC schedules
// here and every collective planner in internal/collective build the
// same type, so congestion checking and makespan simulation live in
// one place.
type Schedule struct {
	Nodes  int
	Phases [][]Pair
	// Blocks, when non-nil, is the per-phase payload multiplier: every
	// message of phase p carries Blocks[p] base-size blocks (collective
	// planners aggregate blocks per message, e.g. recursive doubling
	// ships n/2 blocks per exchange). Nil means one block per message in
	// every phase — the classic AAPC case.
	Blocks []int64
}

// BlocksAt returns the payload multiplier of phase p (1 when Blocks is
// nil or unset for the phase).
func (s *Schedule) BlocksAt(p int) int64 {
	if p < 0 || p >= len(s.Blocks) || s.Blocks[p] <= 0 {
		return 1
	}
	return s.Blocks[p]
}

// PhaseFlows expands phase p into netsim flows, with the phase's block
// multiplier applied to bytesPerBlock.
func (s *Schedule) PhaseFlows(p int, bytesPerBlock int64) []netsim.Flow {
	return s.AppendPhaseFlows(make([]netsim.Flow, 0, len(s.Phases[p])), p, bytesPerBlock)
}

// AppendPhaseFlows appends PhaseFlows(p, bytesPerBlock) to buf and
// returns the extended slice, so a caller expanding phase after phase
// reuses one buffer.
func (s *Schedule) AppendPhaseFlows(buf []netsim.Flow, p int, bytesPerBlock int64) []netsim.Flow {
	bytes := bytesPerBlock * s.BlocksAt(p)
	for _, pr := range s.Phases[p] {
		buf = append(buf, netsim.Flow{Src: pr.Src, Dst: pr.Dst, Bytes: bytes})
	}
	return buf
}

// Shift returns the cyclic-shift (rotation) schedule: in phase k every
// node i sends its personalized block to (i+k) mod n. It works for any
// node count and needs n-1 phases.
func Shift(nodes int) (*Schedule, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("aapc: need at least 2 nodes, got %d", nodes)
	}
	s := &Schedule{Nodes: nodes}
	for k := 1; k < nodes; k++ {
		phase := make([]Pair, 0, nodes)
		for i := 0; i < nodes; i++ {
			phase = append(phase, Pair{Src: i, Dst: (i + k) % nodes})
		}
		s.Phases = append(s.Phases, phase)
	}
	return s, nil
}

// XOR returns the exclusive-or (pairwise exchange) schedule: in phase k
// node i exchanges with i XOR k. Each phase is a perfect matching, the
// classic hypercube-style AAPC schedule; nodes must be a power of two.
func XOR(nodes int) (*Schedule, error) {
	if nodes < 2 || nodes&(nodes-1) != 0 {
		return nil, fmt.Errorf("aapc: XOR schedule needs a power-of-two node count, got %d", nodes)
	}
	s := &Schedule{Nodes: nodes}
	for k := 1; k < nodes; k++ {
		phase := make([]Pair, 0, nodes)
		for i := 0; i < nodes; i++ {
			phase = append(phase, Pair{Src: i, Dst: i ^ k})
		}
		s.Phases = append(s.Phases, phase)
	}
	return s, nil
}

// CheckPhases checks the structural invariant every phase schedule
// must satisfy regardless of what collective it implements: no self
// exchange, all node indices in range, and within each phase every
// node sends at most once and receives at most once.
func (s *Schedule) CheckPhases() error {
	for pi, phase := range s.Phases {
		sends := make(map[int]bool)
		recvs := make(map[int]bool)
		for _, p := range phase {
			if p.Src == p.Dst {
				return fmt.Errorf("aapc: phase %d has a self exchange at node %d", pi, p.Src)
			}
			if p.Src < 0 || p.Src >= s.Nodes || p.Dst < 0 || p.Dst >= s.Nodes {
				return fmt.Errorf("aapc: phase %d has out-of-range pair %v", pi, p)
			}
			if sends[p.Src] {
				return fmt.Errorf("aapc: phase %d: node %d sends twice", pi, p.Src)
			}
			if recvs[p.Dst] {
				return fmt.Errorf("aapc: phase %d: node %d receives twice", pi, p.Dst)
			}
			sends[p.Src] = true
			recvs[p.Dst] = true
		}
	}
	return nil
}

// Validate checks that the schedule is a correct complete exchange:
// the phase invariant of CheckPhases holds, and every ordered pair
// (i, j), i != j, appears exactly once across all phases.
func (s *Schedule) Validate() error {
	if err := s.CheckPhases(); err != nil {
		return err
	}
	seen := make(map[Pair]bool)
	for _, phase := range s.Phases {
		for _, p := range phase {
			if seen[p] {
				return fmt.Errorf("aapc: pair %v scheduled twice", p)
			}
			seen[p] = true
		}
	}
	want := s.Nodes * (s.Nodes - 1)
	if len(seen) != want {
		return fmt.Errorf("aapc: %d pairs scheduled, want %d", len(seen), want)
	}
	return nil
}

// PhaseCongestion returns the congestion factor of every phase on the
// topology (including shared-port effects), as netsim.CongestionOf of
// the phase's flows. The phases are counted one after another in one
// netsim.LinkLoad.
func (s *Schedule) PhaseCongestion(topo netsim.Topology, nodesPerPort int) []float64 {
	out := make([]float64, len(s.Phases))
	load := netsim.NewLinkLoad(topo, nodesPerPort)
	for i, phase := range s.Phases {
		load.Reset()
		for _, pr := range phase {
			load.Add(pr.Src, pr.Dst)
		}
		out[i] = load.Congestion()
	}
	return out
}

// MaxCongestion returns the worst phase congestion.
func (s *Schedule) MaxCongestion(topo netsim.Topology, nodesPerPort int) float64 {
	max := 0.0
	for _, c := range s.PhaseCongestion(topo, nodesPerPort) {
		if c > max {
			max = c
		}
	}
	return max
}

// MakespanCircuit simulates the schedule under the blocking-wormhole
// (circuit) network model, where a message holds its whole path: the
// regime in which phase scheduling pays off in completion time, not
// just in bounded congestion. Phases run one after another, separated
// by barrierNs, and within a phase all exchanges proceed concurrently.
// bytesPerPair is the personalized block size (scaled per phase by the
// Blocks multiplier, if set).
func (s *Schedule) MakespanCircuit(net *netsim.Network, bytesPerPair int64, mode netsim.Mode, barrierNs float64) sim.Time {
	var t sim.Time
	for pi := range s.Phases {
		_, end := net.BatchCircuit(t, s.PhaseFlows(pi, bytesPerPair), mode)
		t = end + sim.Time(barrierNs)
	}
	return t
}

// UnscheduledMakespanCircuit simulates the naive all-at-once complete
// exchange under the blocking-wormhole model.
func UnscheduledMakespanCircuit(net *netsim.Network, nodes int, bytesPerPair int64, mode netsim.Mode) sim.Time {
	_, end := net.BatchCircuit(0, netsim.AllToAll(nodes, bytesPerPair), mode)
	return end
}
