// Package comm executes complete communication operations xQy on the
// simulated machines — the "measured" side of the paper's model-vs-
// measurement comparisons (Stricker/Gross, ISCA 1995, §5, §6).
//
// An operation is assembled from basic transfers exactly as a compiler
// or library would emit it and the basic transfers are simulated by
// internal/xfer against the node's memory system:
//
//   - Buffer-packing and PVM styles perform the gather copy, the block
//     transfer and the scatter copy message-serially, as the 1995
//     libraries did: within the block transfer the send engine, the
//     wires and the receive engine stream concurrently (the ‖ rule),
//     but the copies serialize with it (the ∘ rule).
//   - Chained transfers overlap load-send, network and deposit at word
//     granularity, so the operation runs at the minimum of the three
//     rates.
//
// Per-message library overheads (libsma/SUNMOS vs. PVM) are added on
// top, which produces the block-size-dependent throughput curves of the
// paper's Figure 1.
package comm

import (
	"fmt"
	"math"
	"strings"

	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
	"ctcomm/internal/xfer"
)

// Style selects the implementation of the communication operation.
type Style int

const (
	// BufferPacking gathers into a contiguous buffer, transfers the
	// block, and scatters at the receiver (paper §3.4, §5.1.1, §5.1.3).
	BufferPacking Style = iota
	// Chained reads data in its home pattern and deposits it directly at
	// the destination, eliminating the local copies (§5.1.2, §5.1.4).
	Chained
	// Direct is the fastest vendor-library path for contiguous blocks:
	// no copies, best send and receive engines (Figure 1's "fastest
	// library" curves). Non-contiguous patterns fall back to
	// buffer-packing, as the vendor libraries do.
	Direct
	// PVM is the portable-library path: buffer packing plus extra system
	// buffer copies and a large per-message overhead (§5.1.1, §6.2).
	PVM
)

// String names the style.
func (s Style) String() string {
	switch s {
	case BufferPacking:
		return "buffer-packing"
	case Chained:
		return "chained"
	case Direct:
		return "direct"
	case PVM:
		return "pvm"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// ParseStyle maps a style name (as produced by Style.String, plus the
// aliases "packing" and "packed") back to the Style value.
func ParseStyle(name string) (Style, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "buffer-packing", "packing", "packed":
		return BufferPacking, nil
	case "chained":
		return Chained, nil
	case "direct":
		return Direct, nil
	case "pvm":
		return PVM, nil
	default:
		return 0, fmt.Errorf("comm: unknown style %q (want buffer-packing, chained, direct or pvm)", name)
	}
}

// Options controls one operation run.
type Options struct {
	// Words is the number of 64-bit payload words to move (per message).
	Words int
	// Congestion is the network congestion factor; values below 1 select
	// the machine's default (2 on both modeled machines).
	Congestion float64
	// Duplex simulates the steady state where every node sends and
	// receives at the same time (shift and all-to-all patterns). On a
	// machine with a communication co-processor this is where the
	// shared-bus arbitration penalty bites (§5.1.4); it also arms the
	// all-nodes-active memory-bandwidth constraint (§3.4).
	Duplex bool
	// OverlapUnpack runs the scatter copy of buffer-packing transfers in
	// parallel with the block transfer (§5.1.3's full-overlap variant,
	// possible when a co-processor attends the DMAs). Off by default:
	// the paper's model numbers use the sequential composition.
	OverlapUnpack bool
}

func (o *Options) normalize(m *machine.Machine) {
	if o.Congestion < 1 {
		o.Congestion = m.DefaultCongestion
	}
}

// Stage documents one component of an assembled operation.
type Stage struct {
	Resource string // "cpu", "coproc", "sengine", "rengine", "net"
	Name     string // basic transfer notation, e.g. "64S0"
	Rate     float64
	Serial   bool // true if the stage serializes with the block transfer
}

// Result reports one simulated communication operation.
//
// AnalyticStages and EngineStages are provenance counters for the
// basic-transfer simulations behind the stages: how many came from a
// fitted word-count law (Session) vs. a full engine run. They carry
// observability only — by the bit-identity contract the numbers in the
// Result are the same either way — and MUST NOT be rendered into
// consumer-facing responses, which are byte-compared across paths.
type Result struct {
	Machine      string
	Style        Style
	X, Y         pattern.Spec
	PayloadBytes int64
	ElapsedNs    float64
	Congestion   float64
	Stages       []Stage

	AnalyticStages int
	EngineStages   int
}

// MBps returns the per-node payload throughput.
func (r Result) MBps() float64 {
	if r.ElapsedNs <= 0 {
		return 0
	}
	return float64(r.PayloadBytes) * 1e3 / r.ElapsedNs
}

// Run assembles and simulates one communication operation, simulating
// every basic transfer on a fresh node (the classic point-query path).
func Run(m *machine.Machine, style Style, x, y pattern.Spec, opt Options) (Result, error) {
	return RunWith(m, style, x, y, opt, EngineSource(m))
}

// RunWith assembles one communication operation, obtaining basic
// transfer results from src. With EngineSource it is exactly Run; with
// a Session source, eligible transfers come from fitted word-count laws
// and memoization — bit-identical by contract, sub-linear in cost.
func RunWith(m *machine.Machine, style Style, x, y pattern.Spec, opt Options, src Source) (Result, error) {
	if !x.IsMemory() || !y.IsMemory() {
		return Result{}, fmt.Errorf("comm: xQy requires memory patterns, got %v -> %v", x, y)
	}
	if opt.Words <= 0 {
		return Result{}, fmt.Errorf("comm: Words must be positive")
	}
	opt.normalize(m)

	a := assembler{m: m, opt: opt, src: src, stats: &srcStats{}}
	elapsed, stages, overhead, err := a.assemble(style, x, y)
	if err != nil {
		return Result{}, err
	}
	payload := int64(opt.Words) * pattern.WordBytes

	// The all-nodes-active memory constraint (§3.4): with every node
	// sending and receiving, twice the operation's data rate crosses
	// each node's memory system.
	elapsed += overhead
	if opt.Duplex {
		if lim := m.BusMBps / 2; payloadRate(payload, elapsed) > lim {
			elapsed = float64(payload) * 1e3 / lim
		}
	}

	return Result{
		Machine:        m.Name,
		Style:          style,
		X:              x,
		Y:              y,
		PayloadBytes:   payload,
		ElapsedNs:      elapsed,
		Congestion:     opt.Congestion,
		Stages:         stages,
		AnalyticStages: a.stats.analytic,
		EngineStages:   a.stats.engine,
	}, nil
}

func payloadRate(bytes int64, ns float64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(bytes) * 1e3 / ns
}

// assembler carries the per-run context.
type assembler struct {
	m     *machine.Machine
	opt   Options
	src   Source
	stats *srcStats
}

// srcStats counts basic-transfer provenance across one assembly,
// shared by pointer with sub-assemblers (the chained receive clone).
type srcStats struct {
	analytic int
	engine   int
}

// transfer obtains one basic-transfer result from the source and
// accounts its provenance.
func (a *assembler) transfer(kind xfer.Kind, x, y pattern.Spec) (xfer.Result, error) {
	res, analytic, err := a.src.Transfer(kind, x, y, a.opt.Words)
	if err != nil {
		return res, err
	}
	if analytic {
		a.stats.analytic++
	} else {
		a.stats.engine++
	}
	return res, nil
}

// penal returns the slowdown factor for processor/co-processor stages
// when both interleave memory accesses on the shared bus (duplex mode on
// a co-processor machine).
func (a *assembler) penal() float64 {
	if a.opt.Duplex && a.m.CoProcessor && a.m.CoProcPenalty < 1 {
		return 1 / a.m.CoProcPenalty
	}
	return 1
}

// copyRate sources one basic transfer and returns MB/s.
func (a *assembler) copyRate(r, w pattern.Spec) (float64, error) {
	res, err := a.transfer(xfer.KindCopy, r, w)
	if err != nil {
		return 0, err
	}
	return res.MBps(), nil
}

func (a *assembler) loadSendRate(r pattern.Spec) (float64, error) {
	res, err := a.transfer(xfer.KindLoadSend, r, pattern.Spec{})
	if err != nil {
		return 0, err
	}
	return res.MBps(), nil
}

// bestSend returns the fastest contiguous send path and its stage label.
func (a *assembler) bestSend() (float64, Stage, error) {
	if a.m.Fetch.Supports(pattern.Contig()) {
		res, err := a.transfer(xfer.KindFetchSend, pattern.Contig(), pattern.Spec{})
		if err != nil {
			return 0, Stage{}, err
		}
		return res.MBps(), Stage{Resource: "sengine", Name: "1F0", Rate: res.MBps()}, nil
	}
	r, err := a.loadSendRate(pattern.Contig())
	if err != nil {
		return 0, Stage{}, err
	}
	return r, Stage{Resource: "cpu", Name: "1S0", Rate: r}, nil
}

// bestRecv returns the fastest receive path for pattern w: the hardware
// deposit engine when it supports w, receive-store otherwise. The caller
// decides whether a plain-processor receive is acceptable by inspecting
// the returned stage's resource.
func (a *assembler) bestRecv(w pattern.Spec) (float64, Stage, error) {
	if a.m.Deposit.Supports(w) {
		res, err := a.transfer(xfer.KindRecvDeposit, pattern.Spec{}, w)
		if err != nil {
			return 0, Stage{}, err
		}
		return res.MBps(), Stage{Resource: "rengine", Name: "0D" + w.String(), Rate: res.MBps()}, nil
	}
	res, err := a.transfer(xfer.KindRecvStore, pattern.Spec{}, w)
	if err != nil {
		return 0, Stage{}, err
	}
	resource := "rcpu"
	if a.m.CoProcessor {
		resource = "coproc"
	}
	return res.MBps(), Stage{Resource: resource, Name: "0R" + w.String(), Rate: res.MBps()}, nil
}

// assemble returns the elapsed time (without per-message overhead), the
// stage list, and the per-message overhead for the style.
func (a *assembler) assemble(style Style, x, y pattern.Spec) (float64, []Stage, float64, error) {
	m := a.m
	payload := float64(a.opt.Words) * pattern.WordBytes
	bothContig := x.Kind() == pattern.KindContig && y.Kind() == pattern.KindContig
	timeOf := func(rate float64) float64 { return payload * 1e3 / rate }

	switch style {
	case Direct:
		if !bothContig {
			return a.assemble(BufferPacking, x, y)
		}
		sendRate, sendStage, err := a.bestSend()
		if err != nil {
			return 0, nil, 0, err
		}
		recvRate, recvStage, err := a.bestRecv(pattern.Contig())
		if err != nil {
			return 0, nil, 0, err
		}
		netRate := m.Net.Rate(netsim.DataOnly, a.opt.Congestion)
		rate := math.Min(math.Min(sendRate, netRate), recvRate)
		stages := []Stage{sendStage, {Resource: "net", Name: "Nd", Rate: netRate}, recvStage}
		return timeOf(rate), stages, m.LibOverheadNs, nil

	case Chained:
		mode := netsim.AddrData
		if bothContig {
			mode = netsim.DataOnly
		}
		// Chained sends always go through the processor: only it can
		// follow arbitrary gather patterns (§5.1.2).
		sendRate, err := a.loadSendRate(x)
		if err != nil {
			return 0, nil, 0, err
		}
		sendRate /= a.penal()
		// Address-data pairs on the wire need a receiver that can parse
		// them: a fully flexible deposit engine (T3D annex) or the
		// co-processor; a plain contiguous DMA only handles data-only
		// block streams. Mirror the model's engine-selection rule by
		// hiding the restricted DMA from non-contiguous chains.
		recvMachine := a.m
		if mode == netsim.AddrData && a.m.Deposit.Present &&
			!(a.m.Deposit.Strided && a.m.Deposit.Indexed) {
			clone := *a.m
			clone.Deposit.Present = false
			recvMachine = &clone
		}
		ra := &assembler{m: recvMachine, opt: a.opt, src: a.src, stats: a.stats}
		recvRate, recvStage, err := ra.bestRecv(y)
		if err != nil {
			return 0, nil, 0, err
		}
		if recvStage.Resource == "rcpu" {
			return 0, nil, 0, fmt.Errorf("comm: %s cannot chain %sQ'%s: no background deposit for %s", m.Name, x, y, y)
		}
		if recvStage.Resource == "coproc" {
			recvRate /= a.penal()
			recvStage.Rate = recvRate
		}
		netRate := m.Net.Rate(mode, a.opt.Congestion)
		rate := math.Min(math.Min(sendRate, netRate), recvRate)
		stages := []Stage{
			{Resource: "cpu", Name: x.String() + "S0", Rate: sendRate},
			{Resource: "net", Name: mode.String(), Rate: netRate},
			recvStage,
		}
		return timeOf(rate), stages, m.LibOverheadNs, nil

	case BufferPacking, PVM:
		gatherRate, err := a.copyRate(x, pattern.Contig())
		if err != nil {
			return 0, nil, 0, err
		}
		sendRate, sendStage, err := a.bestSend()
		if err != nil {
			return 0, nil, 0, err
		}
		recvRate, recvStage, err := a.bestRecv(pattern.Contig())
		if err != nil {
			return 0, nil, 0, err
		}
		scatterRate, err := a.copyRate(pattern.Contig(), y)
		if err != nil {
			return 0, nil, 0, err
		}
		netRate := m.Net.Rate(netsim.DataOnly, a.opt.Congestion)
		blockRate := math.Min(math.Min(sendRate, netRate), recvRate)

		stages := []Stage{
			{Resource: "cpu", Name: x.String() + "C1", Rate: gatherRate, Serial: true},
			sendStage,
			{Resource: "net", Name: "Nd", Rate: netRate},
			recvStage,
			{Resource: "rcpu", Name: "1C" + y.String(), Rate: scatterRate, Serial: !a.opt.OverlapUnpack},
		}
		elapsed := timeOf(gatherRate) // gather always serializes
		if a.opt.OverlapUnpack {
			// §5.1.3 full overlap: scatter rides along the block stream.
			elapsed += math.Max(timeOf(blockRate), timeOf(scatterRate))
		} else {
			elapsed += timeOf(blockRate) + timeOf(scatterRate)
		}
		overhead := m.LibOverheadNs

		if style == PVM {
			sysRate, err := a.copyRate(pattern.Contig(), pattern.Contig())
			if err != nil {
				return 0, nil, 0, err
			}
			// Two extra traversals of system buffers, one per side.
			elapsed += 2 * timeOf(sysRate)
			stages = append(stages, Stage{Resource: "cpu", Name: "1C1(sys)x2", Rate: sysRate, Serial: true})
			overhead = m.PVMOverheadNs
		}
		return elapsed, stages, overhead, nil

	default:
		return 0, nil, 0, fmt.Errorf("comm: unknown style %v", style)
	}
}
