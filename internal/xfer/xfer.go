// Package xfer executes the basic transfers of the copy-transfer model
// on a simulated node (Stricker/Gross, ISCA 1995, §3.2):
//
//	xCy  local memory-to-memory copy (processor load/store loop)
//	xS0  load-send: memory -> network port, by the processor
//	xF0  fetch-send: memory -> network, by a DMA/fetch engine
//	0Ry  receive-store: network port -> memory, by the processor
//	0Dy  receive-deposit: network -> memory, by the deposit engine
//
// Each call simulates the transfer at word granularity against the
// node's memory system and returns elapsed simulated time plus how long
// each node resource (processor, DRAM, engine) was held, which is what
// the composition rules of the model need.
//
// Every transfer splits into a memory-system half (exact integer-fs
// simulation, memPart) and a float post-math half (port costs, NI
// clamps, engine setup, finish). The analytic sweep layer (law.go)
// feeds an extrapolated memsim.Result to the identical post-math,
// which is what makes analytic results bit-identical to engine runs.
package xfer

import (
	"fmt"

	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/pattern"
	"ctcomm/internal/sim"
)

// Result reports one simulated basic transfer.
type Result struct {
	PayloadBytes int64
	ElapsedNs    float64
	CPUNs        float64 // time the (main) processor was held
	DRAMNs       float64 // DRAM bank occupancy
	EngineNs     float64 // DMA/deposit engine occupancy
}

// MBps returns payload throughput in MB/s.
func (r Result) MBps() float64 { return memsim.MBps(r.PayloadBytes, r.ElapsedNs) }

// Default buffer placement: source, destination and index regions live
// in distinct memory areas so streams do not alias.
const (
	srcBase = 0
	dstBase = 1 << 30
)

// Indexed sides permute their own word offsets, seeded per side.
const readSeed, writeSeed = 0x5EED0001, 0x5EED0002

// streams makes rs and ws the read- and write-side streams of a
// transfer of kind over words payload words: a send's write side and a
// receive's read side are contiguous, the side it never runs. An
// indexed side gets a deterministic permutation, which streams returns
// so recycle can take it back after the run.
func streams(rs, ws *pattern.Stream, kind Kind, x, y pattern.Spec, words int) (ri, wi []int64) {
	switch kind {
	case KindLoadSend, KindFetchSend:
		y = pattern.Contig()
	case KindRecvStore, KindRecvDeposit:
		x = pattern.Contig()
	}
	rs.Init(x, srcBase, words)
	if x.Kind() == pattern.KindIndexed {
		ri = permutation(words, readSeed)
		rs.WithIndex(ri)
	}
	ws.Init(y, dstBase, words)
	if y.Kind() == pattern.KindIndexed {
		wi = permutation(words, writeSeed)
		ws.WithIndex(wi)
	}
	return ri, wi
}

// indexBufs keeps idle permutations between runs, keyed by seed: at
// most GOMAXPROCS per seed (sim.Pool) and keepIndexWords words each, so
// what it retains stays under 64 KiB per worker, whatever the machine
// profiles and memories in use. An idle permutation holds the offsets
// of its own length under its seed.
var indexBufs = sim.NewPool[uint64, []int64]()

// keepIndexWords caps a kept permutation at 4096 words (32 KiB); a
// longer side builds its permutation for its one run. Counted over 25 s
// runs of the perfbench workloads (seed 1201, 2-core host), the cap
// covers every indexed side of sweep-engine (20,792, at most 4,095
// words) and 78-79% of query-mix's and routed-mix's; the rest are
// cold prices of up to 32,768 words and the rate-table calibration's
// 131,072-word runs. Keeping those would pin up to 512 KiB per seed on
// that host (2 MiB per seed once a calibration-sized side was kept),
// against a live heap near 7 MiB, to save the 0.31 KiB per answer they
// allocate on query-mix (of 11.4).
const keepIndexWords = 4096

// permutation returns pattern.Permutation(words, seed), rebuilding an
// idle one in place unless it already has words words.
func permutation(words int, seed uint64) []int64 {
	if words > keepIndexWords {
		return pattern.Permutation(words, seed)
	}
	buf, _ := indexBufs.Get(seed)
	if len(buf) != words {
		buf = pattern.AppendPermutation(buf[:0], words, seed)
	}
	return buf
}

// recycle hands the permutations streams built back to indexBufs.
func recycle(ri, wi []int64) {
	keep(readSeed, ri)
	keep(writeSeed, wi)
}

func keep(seed uint64, buf []int64) {
	if buf != nil && cap(buf) <= keepIndexWords {
		indexBufs.Put(seed, buf)
	}
}

// Copy simulates the local memory-to-memory copy xCy of words payload
// words on the node. Both patterns must reference memory (not a port).
// The read and write streams are zipped payload-word by payload-word
// with each side's overhead (index) loads immediately before the payload
// access they serve — the unrolled, optimally scheduled load/store loop
// of the xCy copy (memsim.InterleaveWordwise).
func Copy(n *machine.Node, read, write pattern.Spec, words int) (Result, error) {
	return Run(n.M, n.Mem, KindCopy, read, write, words)
}

// LoadSend simulates xS0: the processor loads words with pattern read
// and stores each to the memory-mapped network port. The port store is
// processor time; the overall rate is additionally capped by the NI
// injection bandwidth.
func LoadSend(n *machine.Node, read pattern.Spec, words int) (Result, error) {
	return Run(n.M, n.Mem, KindLoadSend, read, pattern.Spec{}, words)
}

// FetchSend simulates xF0: a fetch engine (DMA) reads memory in the
// background and feeds the network. It fails if the node has no engine
// or the engine cannot handle the pattern.
func FetchSend(n *machine.Node, read pattern.Spec, words int) (Result, error) {
	return Run(n.M, n.Mem, KindFetchSend, read, pattern.Spec{}, words)
}

// RecvStore simulates 0Ry: the processor reads incoming words from the
// network port and stores them with pattern write. Addresses arrive with
// the data (or are generated locally), so no index overhead loads occur.
func RecvStore(n *machine.Node, write pattern.Spec, words int) (Result, error) {
	return Run(n.M, n.Mem, KindRecvStore, pattern.Spec{}, write, words)
}

// RecvDeposit simulates 0Dy: the deposit engine takes address-data pairs
// (or a contiguous block) off the network and stores them in the
// background. It fails if the engine cannot handle the pattern.
func RecvDeposit(n *machine.Node, write pattern.Spec, words int) (Result, error) {
	return Run(n.M, n.Mem, KindRecvDeposit, pattern.Spec{}, write, words)
}

// Run simulates one basic transfer of words payload words on mem, the
// memory system of a node of m. x is the read-side pattern (Copy,
// LoadSend, FetchSend), y the write-side pattern (Copy, RecvStore,
// RecvDeposit); the unused side is ignored.
func Run(m *machine.Machine, mem *memsim.Memory, kind Kind, x, y pattern.Spec, words int) (Result, error) {
	if err := admit(m, kind, x, y); err != nil {
		return Result{}, err
	}
	return finish(m, kind, x, y, words, memPart(mem, kind, x, y, words)), nil
}

// admit reports why m cannot run the transfer at all, or nil.
func admit(m *machine.Machine, kind Kind, x, y pattern.Spec) error {
	switch kind {
	case KindCopy:
		if !x.IsMemory() || !y.IsMemory() {
			return fmt.Errorf("xfer: Copy requires memory patterns, got %v -> %v", x, y)
		}
	case KindLoadSend:
		if !x.IsMemory() {
			return fmt.Errorf("xfer: LoadSend requires a memory read pattern, got %v", x)
		}
	case KindFetchSend:
		if !m.Fetch.Supports(x) {
			return fmt.Errorf("xfer: %s fetch engine cannot read pattern %v", m.Name, x)
		}
	case KindRecvStore:
		if !y.IsMemory() {
			return fmt.Errorf("xfer: RecvStore requires a memory write pattern, got %v", y)
		}
	case KindRecvDeposit:
		if !m.Deposit.Supports(y) {
			return fmt.Errorf("xfer: %s deposit engine cannot write pattern %v", m.Name, y)
		}
	default:
		return fmt.Errorf("xfer: unknown transfer kind %v", kind)
	}
	return nil
}

// finish is the post-math of an admitted transfer: its Result from
// res, the memory half's result for exactly that transfer. It reads
// the patterns only for the pages an engine side touches, so a law
// answer (law.go) replays it without building a stream.
func finish(m *machine.Machine, kind Kind, x, y pattern.Spec, words int, res memsim.Result) Result {
	payload := int64(words) * pattern.WordBytes
	switch kind {
	case KindCopy:
		return Result{
			PayloadBytes: payload,
			ElapsedNs:    res.ElapsedNs,
			CPUNs:        res.ElapsedNs, // the processor drives the whole copy
			DRAMNs:       res.DRAMBusyNs,
		}
	case KindLoadSend:
		elapsed := res.ElapsedNs + float64(words)*m.NI.PortStoreNs
		if lim := float64(payload) * 1e3 / m.NI.InjectMBps; elapsed < lim {
			elapsed = lim
		}
		return Result{PayloadBytes: payload, ElapsedNs: elapsed, CPUNs: elapsed, DRAMNs: res.DRAMBusyNs}
	case KindFetchSend:
		elapsed := res.ElapsedNs
		if lim := float64(payload) * 1e3 / m.Fetch.RateMBps; elapsed < lim {
			elapsed = lim
		}
		if lim := float64(payload) * 1e3 / m.NI.InjectMBps; elapsed < lim {
			elapsed = lim
		}
		cpu := m.Fetch.SetupNs + float64(pages(x, words, m.Mem.PageBytes))*m.Fetch.KickNs
		return Result{
			PayloadBytes: payload,
			ElapsedNs:    elapsed + cpu, // setup/kicks serialize with the stream
			CPUNs:        cpu,
			DRAMNs:       res.DRAMBusyNs,
			EngineNs:     elapsed,
		}
	case KindRecvStore:
		elapsed := res.ElapsedNs + float64(words)*m.NI.PortLoadNs
		if lim := float64(payload) * 1e3 / m.NI.EjectMBps; elapsed < lim {
			elapsed = lim
		}
		return Result{PayloadBytes: payload, ElapsedNs: elapsed, CPUNs: elapsed, DRAMNs: res.DRAMBusyNs}
	default: // KindRecvDeposit
		elapsed := res.ElapsedNs
		if lim := float64(payload) * 1e3 / m.NI.EjectMBps; elapsed < lim {
			elapsed = lim
		}
		cpu := m.Deposit.SetupNs + float64(pages(y, words, m.Mem.PageBytes))*m.Deposit.KickNs
		return Result{
			PayloadBytes: payload,
			ElapsedNs:    elapsed + cpu,
			CPUNs:        cpu,
			DRAMNs:       res.DRAMBusyNs,
			EngineNs:     elapsed,
		}
	}
}

// memPart runs the memory-system half of one basic transfer. Stream
// construction lives here, in ONE place, so the engine path and the law
// prober drive byte-identical schedules. x is the read-side pattern
// (Copy, LoadSend, FetchSend), y the write-side pattern (Copy,
// RecvStore, RecvDeposit); the unused side is ignored.
func memPart(mem *memsim.Memory, kind Kind, x, y pattern.Spec, words int) memsim.Result {
	rs, ws := mem.Streams()
	defer recycle(streams(rs, ws, kind, x, y, words))
	switch kind {
	case KindCopy:
		return mem.RunStream(rs, ws.ForWrites(), memsim.InterleaveWordwise)
	case KindLoadSend:
		return mem.RunStream(rs, nil, memsim.InterleaveWordwise)
	case KindFetchSend:
		return mem.EngineRead(rs)
	case KindRecvStore:
		// No overhead loads: the scatter addresses come off the wire.
		return mem.RunStream(nil, ws.ForWrites().NoIndexOverhead(), memsim.InterleaveWordwise)
	case KindRecvDeposit:
		return mem.EngineWrite(ws)
	default:
		panic(fmt.Sprintf("xfer: unknown transfer kind %v", kind))
	}
}

// pages returns how many DRAM pages an engine side of words payload
// words in pattern spec touches (the unit of "kick" attention
// restricted Paragon engines need), as streams lays the side out. An
// indexed side permutes its own word offsets (pattern.Permutation), so
// it spans exactly words words.
func pages(spec pattern.Spec, words, pageBytes int) int64 {
	fp := int64(words) * pattern.WordBytes
	if spec.Kind() != pattern.KindIndexed {
		fp = pattern.NewStream(spec, 0, words).Footprint()
	}
	if fp == 0 {
		return 0
	}
	return (fp + int64(pageBytes) - 1) / int64(pageBytes)
}
