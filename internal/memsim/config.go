// Package memsim simulates the local memory system of a parallel-computer
// node: an on-chip primary cache in front of a non-interleaved DRAM memory,
// plus the three bandwidth helpers the paper identifies as decisive for
// communication performance (Stricker/Gross, ISCA 1995, §2.3, §3.5):
//
//   - a read-ahead unit (RDAL on the T3D) that prefetches sequential
//     cache-line load streams,
//   - a write(-back) queue (WBQ on the Alpha 21064) that posts and merges
//     stores so strided stores do not stall the processor, and
//   - a prefetch queue (PFQ on the i860XP) that pipelines loads so strided
//     and indexed load streams are limited by DRAM occupancy rather than
//     by full load-to-use latency.
//
// The simulator executes explicit word-granularity address streams
// (pattern.Access) and reports simulated time, which is the basis of every
// throughput figure in this repository.
package memsim

import (
	"fmt"

	"ctcomm/internal/sim"
)

// WritePolicy selects how processor stores interact with the cache.
type WritePolicy int

const (
	// WriteAround stores bypass the cache entirely (no write-allocate);
	// this is the default configuration of the T3D node (paper §3.5.1).
	WriteAround WritePolicy = iota
	// WriteThrough stores update the cache when the line is present and
	// always go to memory; the Paragon under SUNMOS runs write-through
	// (paper §3.5.2).
	WriteThrough
	// WriteBack stores allocate into the cache and dirty lines are
	// written to memory only on eviction. Neither of the paper's
	// machines runs this way for communication buffers (the i860
	// supports it but SUNMOS selects write-through); the hierarchical
	// profiles do, and the design-space ablations the paper's
	// conclusions invite use it.
	WriteBack
)

func (p WritePolicy) String() string {
	switch p {
	case WriteAround:
		return "write-around"
	case WriteThrough:
		return "write-through"
	case WriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("WritePolicy(%d)", int(p))
	}
}

// FFMode gates the steady-state fast-forward optimization (see ff.go).
type FFMode int

const (
	// FastForwardAuto (the zero value) lets RunStream extrapolate
	// steady-state periods of eligible patterns. Results are bit-identical
	// to exact simulation; this is the default.
	FastForwardAuto FFMode = iota
	// FastForwardOff forces word-by-word simulation everywhere. Used by
	// the differential tests and the -no-fast-forward experiment flag.
	FastForwardOff
)

func (f FFMode) String() string {
	switch f {
	case FastForwardAuto:
		return "auto"
	case FastForwardOff:
		return "off"
	default:
		return fmt.Sprintf("FFMode(%d)", int(f))
	}
}

// Config parameterizes one node memory system. All times are nanoseconds;
// all sizes are bytes unless noted.
type Config struct {
	Name string

	// FastForward gates the steady-state fast-forward optimization of
	// RunStream. The default (FastForwardAuto) enables it; results are
	// bit-identical either way (DESIGN.md §6).
	FastForward FFMode

	// Stats, when non-nil, accumulates access counts and simulated time
	// from every Run/EngineRead/EngineWrite on memories built from this
	// configuration. The experiment runner attaches one Stats per
	// experiment to attribute simulator work under concurrency.
	Stats *sim.Stats

	// ClockNs is the processor cycle time.
	ClockNs float64

	// Cache geometry. LineBytes must be a power of two and a multiple of
	// the 8-byte word.
	CacheBytes int
	LineBytes  int
	Ways       int
	Policy     WritePolicy

	// DRAM timing: a single non-interleaved bank with page (row) mode.
	// An access to the open page costs RowHitNs of latency, to a closed
	// page RowMissNs; every 8-byte word transferred adds WordNs of bus
	// occupancy.
	PageBytes int
	RowHitNs  float64
	RowMissNs float64
	WordNs    float64

	// BusOverheadNs is the processor-to-memory-controller round trip
	// added to the visible latency of a blocking load miss (it is hidden
	// for pipelined and prefetched loads).
	BusOverheadNs float64

	// CriticalWordFirst restarts the processor after a sequential
	// blocking line fill as soon as the first word arrives while the
	// rest of the line streams in (i860XP wrapping fills). Without it
	// the processor waits for the whole line (Alpha 21064).
	CriticalWordFirst bool

	// ReadAhead enables the sequential-stream prefetcher (RDAL). A load
	// stream that misses two consecutive lines triggers prefetching into
	// a stream buffer; stream-buffer hits cost StreamHitCy cycles.
	ReadAhead   bool
	StreamHitCy float64

	// WBQEntries is the depth of the posted-write queue in line-sized
	// merging entries; 0 means stores block until DRAM completes them.
	WBQEntries int

	// PFQDepth is the number of outstanding pipelined loads; 0 means
	// loads block for the full miss latency.
	PFQDepth int

	// WriteOpNs is extra bus occupancy per posted-write drain (the cost
	// of one write bus transaction beyond raw DRAM timing).
	WriteOpNs float64

	// PostedWriteClosesPage makes every posted-write drain a full
	// RAS/CAS transaction that closes the DRAM page. True for the
	// Paragon's individual i860 bus write transactions; false for the
	// T3D write queue, which exploits page mode across drains (that is
	// exactly why "strided stores are better supported" there, Fig. 4).
	PostedWriteClosesPage bool

	// PFQOpNs is extra bus occupancy per pipelined (PFQ) load: each
	// non-cached pipelined load is an individual bus transaction with
	// its own arbitration cost.
	PFQOpNs float64

	// EngineOpNs is extra occupancy per single-word engine (DMA/deposit)
	// DRAM operation: the network-interface handshake of one
	// address-data pair. Engine single-word operations also close the
	// DRAM page (they perform full RAS/CAS cycles).
	EngineOpNs float64

	// Per-reference processor issue costs in cycles (address generation,
	// loop overhead amortized per access of an unrolled copy loop).
	IssueLoadCy  float64
	IssueStoreCy float64
}

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	switch {
	case c.ClockNs <= 0:
		return fmt.Errorf("memsim: %s: ClockNs must be positive", c.Name)
	case c.LineBytes < 8 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("memsim: %s: LineBytes must be a power of two >= 8", c.Name)
	case c.CacheBytes <= 0 || c.CacheBytes%c.LineBytes != 0:
		return fmt.Errorf("memsim: %s: CacheBytes must be a positive multiple of LineBytes", c.Name)
	case c.Ways <= 0 || (c.CacheBytes/c.LineBytes)%c.Ways != 0:
		return fmt.Errorf("memsim: %s: invalid associativity", c.Name)
	case c.PageBytes < c.LineBytes || c.PageBytes&(c.PageBytes-1) != 0:
		return fmt.Errorf("memsim: %s: PageBytes must be a power of two >= LineBytes", c.Name)
	case c.RowHitNs < 0 || c.RowMissNs < c.RowHitNs:
		return fmt.Errorf("memsim: %s: need 0 <= RowHitNs <= RowMissNs", c.Name)
	case c.WordNs <= 0:
		return fmt.Errorf("memsim: %s: WordNs must be positive", c.Name)
	case c.WBQEntries < 0 || c.PFQDepth < 0:
		return fmt.Errorf("memsim: %s: queue depths must be non-negative", c.Name)
	case c.PFQOpNs < 0 || c.EngineOpNs < 0 || c.WriteOpNs < 0:
		return fmt.Errorf("memsim: %s: per-op overheads must be non-negative", c.Name)
	}
	return nil
}

// LineWords returns the cache line size in 8-byte words.
func (c *Config) LineWords() int { return c.LineBytes / 8 }
