package netsim

import (
	"fmt"
	"strings"

	"ctcomm/internal/pattern"
)

// Level identifies one tier of a machine's communication hierarchy.
// The paper's two machines have a single tier — every pair of nodes
// talks over the same interconnect — but modern clusters do not: cores
// in one socket exchange data through a shared cache, sockets in one
// node over the coherence links, and nodes over the network, each tier
// with its own rate, minimum congestion, and endpoint copy cost (Task &
// Chauhan's cluster-of-multi-cores model; González-Domínguez et al. fit
// the same startup+bandwidth constants per tier on a Cray XE).
type Level int

const (
	// IntraSocket is communication between cores of one socket.
	IntraSocket Level = iota
	// InterSocket is communication between sockets of one node.
	InterSocket
	// InterNode is communication over the interconnect — the only tier
	// the paper's flat machines have.
	InterNode
)

// String renders the canonical level spelling.
func (l Level) String() string {
	switch l {
	case IntraSocket:
		return "intra-socket"
	case InterSocket:
		return "inter-socket"
	case InterNode:
		return "inter-node"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Levels returns every hierarchy tier, innermost first.
func Levels() []Level { return []Level{IntraSocket, InterSocket, InterNode} }

// ParseLevel resolves a level spelling. Accepted: "intra-socket",
// "inter-socket", "inter-node" plus the obvious compressed variants.
// The empty string is NOT a level; callers treat it as "default".
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "intra-socket", "intrasocket", "socket":
		return IntraSocket, nil
	case "inter-socket", "intersocket", "numa":
		return InterSocket, nil
	case "inter-node", "internode", "node", "network":
		return InterNode, nil
	}
	return 0, fmt.Errorf("netsim: unknown hierarchy level %q (want intra-socket, inter-socket or inter-node)", s)
}

// LevelConfig holds the fitted or specified constants of one tier: the
// startup+bandwidth pair every postal-style model is built from, plus
// the tier's congestion floor and per-word endpoint copy cost.
type LevelConfig struct {
	// LinkMBps is the tier's effective link bandwidth.
	LinkMBps float64 `json:"linkMBps"`
	// Congestion is the tier's minimum congestion factor (the T3D's
	// shared ports are the flat precedent: "the minimal congestion is
	// two"). Values below 1 normalize to 1.
	Congestion float64 `json:"congestion"`
	// CopyCostNs is the per-word endpoint copy cost of the tier — e.g.
	// the extra shared-memory copy intra-node MPI pays per word. It
	// enters the tier's asymptotic payload rate, mirroring how the
	// paper's model counts preparation copies.
	CopyCostNs float64 `json:"copyCostNs"`
	// StartupNs is the tier's per-message startup constant t0 — the
	// other half of the fitted startup+bandwidth pair.
	StartupNs float64 `json:"startupNs"`
}

// Hierarchy places nodes into sockets and (multi-core) nodes and holds
// the per-tier constants. Simulator node ids group consecutively:
// cores [0, CoresPerSocket) form socket 0, and so on.
type Hierarchy struct {
	// CoresPerSocket is the number of simulator nodes (cores) per socket.
	CoresPerSocket int `json:"coresPerSocket"`
	// SocketsPerNode is the number of sockets per multi-core node.
	SocketsPerNode int `json:"socketsPerNode"`

	IntraSocket LevelConfig `json:"intraSocket"`
	InterSocket LevelConfig `json:"interSocket"`
	InterNode   LevelConfig `json:"interNode"`
}

// Level returns the constants of one tier.
func (h *Hierarchy) Level(l Level) LevelConfig {
	switch l {
	case IntraSocket:
		return h.IntraSocket
	case InterSocket:
		return h.InterSocket
	default:
		return h.InterNode
	}
}

// SetLevel replaces the constants of one tier.
func (h *Hierarchy) SetLevel(l Level, lc LevelConfig) {
	switch l {
	case IntraSocket:
		h.IntraSocket = lc
	case InterSocket:
		h.InterSocket = lc
	default:
		h.InterNode = lc
	}
}

// LevelOf selects the tier a src->dst transfer crosses by placement:
// same socket, same node, or the interconnect.
func (h *Hierarchy) LevelOf(src, dst int) Level {
	if h.CoresPerSocket < 1 || h.SocketsPerNode < 1 {
		return InterNode
	}
	if src/h.CoresPerSocket == dst/h.CoresPerSocket {
		return IntraSocket
	}
	perNode := h.CoresPerSocket * h.SocketsPerNode
	if src/perNode == dst/perNode {
		return InterSocket
	}
	return InterNode
}

// Normalize makes every implicit default explicit, so a serialized
// hierarchy round-trips byte-stable and zero-valued fields are never
// ambiguous: an unset tier (LinkMBps == 0) inherits the constants of
// the next OUTER tier (intra-socket from inter-socket, inter-socket
// from inter-node, inter-node from the flat link rate), and congestion
// floors below 1 become 1. Normalize is idempotent.
func (h *Hierarchy) Normalize(flatLinkMBps float64) {
	norm := func(lc *LevelConfig, outer LevelConfig) {
		if lc.LinkMBps == 0 {
			*lc = outer
		}
		if lc.Congestion < 1 {
			lc.Congestion = 1
		}
	}
	norm(&h.InterNode, LevelConfig{LinkMBps: flatLinkMBps, Congestion: 1})
	norm(&h.InterSocket, h.InterNode)
	norm(&h.IntraSocket, h.InterSocket)
}

// Validate checks a (normalized) hierarchy. nodes is the topology's
// node count; it must factor into whole sockets and whole multi-core
// nodes, or placement-based tier selection would be meaningless.
func (h *Hierarchy) Validate(nodes int) error {
	if h.CoresPerSocket < 1 || h.SocketsPerNode < 1 {
		return fmt.Errorf("netsim: hierarchy needs CoresPerSocket >= 1 and SocketsPerNode >= 1, got %d and %d",
			h.CoresPerSocket, h.SocketsPerNode)
	}
	perNode := h.CoresPerSocket * h.SocketsPerNode
	if nodes > 0 && nodes%perNode != 0 {
		return fmt.Errorf("netsim: hierarchy: %d nodes do not factor into %d-core sockets x %d sockets (%d cores per node)",
			nodes, h.CoresPerSocket, h.SocketsPerNode, perNode)
	}
	for _, l := range Levels() {
		lc := h.Level(l)
		switch {
		case lc.LinkMBps <= 0:
			return fmt.Errorf("netsim: hierarchy: %s LinkMBps must be positive", l)
		case lc.Congestion < 1:
			return fmt.Errorf("netsim: hierarchy: %s Congestion must be >= 1", l)
		case lc.CopyCostNs < 0 || lc.StartupNs < 0:
			return fmt.Errorf("netsim: hierarchy: %s costs must be non-negative", l)
		}
	}
	return nil
}

// Clone returns a deep copy (nil-safe).
func (h *Hierarchy) Clone() *Hierarchy {
	if h == nil {
		return nil
	}
	c := *h
	return &c
}

// RateAt returns the payload bandwidth in MB/s of a transfer at the
// given tier under the given congestion factor. For a flat
// configuration (no hierarchy) every tier answers like Rate. With a
// hierarchy, the tier's link rate is derated by the mode's framing
// efficiency and by max(congestion, tier floor), and the tier's
// per-word endpoint copy cost is folded into the asymptotic rate:
//
//	ns/byte = 1e3 / (LinkMBps·eff/congestion) + CopyCostNs/WordBytes
//
// The function is exactly invertible in LinkMBps given the other
// constants — the property the calibration fitter relies on.
func (c Config) RateAt(l Level, m Mode, congestion float64) float64 {
	if c.Hier == nil {
		return c.Rate(m, congestion)
	}
	lc := c.Hier.Level(l)
	if congestion < lc.Congestion {
		congestion = lc.Congestion
	}
	if congestion < 1 {
		congestion = 1
	}
	wire := lc.LinkMBps * c.Efficiency(m) / congestion
	if lc.CopyCostNs <= 0 {
		return wire
	}
	nsPerByte := 1e3/wire + lc.CopyCostNs/float64(pattern.WordBytes)
	return 1e3 / nsPerByte
}

// LinkForRate inverts RateAt: the tier LinkMBps that yields payload
// rate mbps for mode m at the tier's congestion floor, holding the
// tier's other constants fixed. It reports an error when the rate is
// unachievable (the copy cost alone already caps below it).
func (c Config) LinkForRate(l Level, m Mode, mbps float64) (float64, error) {
	if mbps <= 0 {
		return 0, fmt.Errorf("netsim: rate must be positive, got %g MB/s", mbps)
	}
	eff := c.Efficiency(m)
	if eff <= 0 {
		return 0, fmt.Errorf("netsim: %s: zero framing efficiency", c.Name)
	}
	cong, copyNs := 1.0, 0.0
	if c.Hier != nil {
		lc := c.Hier.Level(l)
		if lc.Congestion > 1 {
			cong = lc.Congestion
		}
		copyNs = lc.CopyCostNs
	}
	wireNsPerByte := 1e3/mbps - copyNs/float64(pattern.WordBytes)
	if wireNsPerByte <= 0 {
		return 0, fmt.Errorf("netsim: %g MB/s is unachievable at %s: the %g ns/word copy cost alone is slower", mbps, l, copyNs)
	}
	return cong * 1e3 / (eff * wireNsPerByte), nil
}
