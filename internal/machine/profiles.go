package machine

import (
	"ctcomm/internal/memsim"
	"ctcomm/internal/netsim"
)

// The two machine profiles reproduce the node architectures of paper
// §3.5. Timing parameters were calibrated so the simulated basic-transfer
// throughputs land near the paper's measured Tables 1-4 (see
// internal/calibrate and EXPERIMENTS.md for achieved deltas); the
// mechanisms (read-ahead, write queue, prefetch queue, engine
// restrictions) are structural, not fitted per experiment.

// mustProfile unwraps a built-in constructor. The static built-in specs
// are known good; a failure here is a programmer error in this file,
// never reachable from user input (loaded or sized specs go through the
// error-returning constructors).
func mustProfile(m *Machine, err error) *Machine {
	if err != nil {
		panic(err)
	}
	return m
}

// T3D returns the Cray T3D profile; see NewT3D.
func T3D() *Machine { return mustProfile(NewT3D()) }

// NewT3D builds the Cray T3D profile: a 150 MHz Alpha 21064 with an 8 KB
// direct-mapped on-chip cache, write-around stores with a merging
// write-back queue, RDAL read-ahead for contiguous load streams, a
// memory-mapped annex port for remote stores, and a fully flexible
// deposit engine that handles contiguous, strided and indexed incoming
// remote stores in the background (paper §3.5.1). Construction errors
// (topology or validation) return wrapped in ErrBadSpec instead of
// panicking, so spec problems can never crash a serving process.
func NewT3D() (*Machine, error) {
	topo, err := netsim.NewTorus3D(4, 4, 4) // 64-node partition
	if err != nil {
		return nil, badSpec(err)
	}
	m := &Machine{
		Name: "Cray T3D",
		Mem: memsim.Config{
			Name:              "t3d-mem",
			ClockNs:           6.67, // 150 MHz Alpha
			CacheBytes:        8 * 1024,
			LineBytes:         32,
			Ways:              1,
			Policy:            memsim.WriteAround,
			PageBytes:         2048,
			RowHitNs:          40,
			RowMissNs:         100,
			WordNs:            15,
			BusOverheadNs:     40,
			CriticalWordFirst: false, // 21064 waits for the full line
			ReadAhead:         true,  // RDAL
			StreamHitCy:       2,
			WBQEntries:        4, // Alpha 21064 write buffer
			PFQDepth:          0,
			EngineOpNs:        30, // annex handshake per address-data pair
			IssueLoadCy:       1,
			IssueStoreCy:      1,
		},
		Net: netsim.Config{
			Name:               "t3d-net",
			LinkMBps:           160, // effective after routing control
			PacketPayloadBytes: 128,
			PacketHeaderBytes:  16, // -> Nd ~142 MB/s at congestion 1
			AddrBytes:          8,
			PairControlBytes:   2, // -> Nadp ~36 MB/s at congestion 2 (Table 4: 38)
			NodesPerPort:       2, // two nodes share one port (§4.3)
			ChunkBytes:         512,
			HopLatencyNs:       25, // T3D switch hop
		},
		Topo: topo,
		NI: NIConfig{
			PortStoreNs: 35, // annex port store -> 1S0 ~126 MB/s
			PortLoadNs:  70,
			InjectMBps:  160,
			EjectMBps:   142, // deposits arrive at most at the Nd rate
		},
		Deposit: DepositConfig{
			Present: true,
			Contig:  true,
			Strided: true,
			Indexed: true, // the annex handles address-data pairs
		},
		Fetch:             FetchConfig{Present: false},
		CoProcessor:       false,
		BusMBps:           320,
		CoProcPenalty:     1.0,
		DefaultCongestion: 2,     // shared ports make two the common case
		LibOverheadNs:     3e3,   // libsma put latency ~3 us
		PVMOverheadNs:     350e3, // Cray PVM3 buffered send
	}
	if err := m.Validate(); err != nil {
		return nil, badSpec(err)
	}
	return m, nil
}

// Paragon returns the Intel Paragon profile; see NewParagon.
func Paragon() *Machine { return mustProfile(NewParagon()) }

// NewParagon builds the Intel Paragon profile: two 50 MHz i860XP
// processors on a 400 MB/s bus with 16 KB 4-way write-through caches,
// pipelined loads through the PFQ, restricted contiguous-only DMA
// (line-transfer) engines needing processor attention, and the second
// processor available as a flexible software deposit engine
// (paper §3.5.2, §5.1.4). Errors return wrapped in ErrBadSpec.
func NewParagon() (*Machine, error) {
	topo, err := netsim.NewMesh2D(8, 8)
	if err != nil {
		return nil, badSpec(err)
	}
	m := &Machine{
		Name: "Intel Paragon",
		Mem: memsim.Config{
			Name:                  "paragon-mem",
			ClockNs:               20, // 50 MHz i860XP
			CacheBytes:            16 * 1024,
			LineBytes:             32,
			Ways:                  4,
			Policy:                memsim.WriteThrough,
			PageBytes:             2048,
			RowHitNs:              40,
			RowMissNs:             110,
			WordNs:                20, // 400 MB/s bus
			BusOverheadNs:         100,
			CriticalWordFirst:     true, // i860XP wrapping fills
			ReadAhead:             false,
			StreamHitCy:           2,
			WBQEntries:            2,  // shallow posting, write-through
			WriteOpNs:             40, // each drain is its own bus transaction
			PostedWriteClosesPage: true,
			PFQDepth:              3,  // pipelined loads
			PFQOpNs:               45, // bus arbitration per pipelined load
			IssueLoadCy:           1,
			IssueStoreCy:          1,
		},
		Net: netsim.Config{
			Name:               "paragon-net",
			LinkMBps:           176, // effective; raw ~200 MB/s
			PacketPayloadBytes: 256,
			PacketHeaderBytes:  0, // -> Nd 176 MB/s at congestion 1
			AddrBytes:          8,
			PairControlBytes:   0, // -> Nadp 88 MB/s (exactly half)
			NodesPerPort:       1,
			ChunkBytes:         512,
			HopLatencyNs:       40, // Paragon mesh router hop
		},
		Topo: topo,
		NI: NIConfig{
			PortStoreNs: 70, // uncached NI FIFO store over the bus
			PortLoadNs:  30,
			InjectMBps:  160,
			EjectMBps:   160,
		},
		Deposit: DepositConfig{
			Present: true,
			Contig:  true, // DMA handles only aligned contiguous blocks
			Strided: false,
			Indexed: false,
			SetupNs: 2000, // processor sets up each transfer
			KickNs:  500,  // attention per DRAM page boundary
		},
		Fetch: FetchConfig{
			Present:    true,
			ContigOnly: true,
			RateMBps:   160, // 1F0 measured at 160 MB/s
			SetupNs:    2000,
			KickNs:     500,
		},
		CoProcessor:       true,
		BusMBps:           400,
		CoProcPenalty:     0.5, // A-step bus arbitration loss (§5.1.4)
		DefaultCongestion: 2,
		LibOverheadNs:     25e3,  // SUNMOS message latency ~25 us
		PVMOverheadNs:     400e3, // Paragon PVM
	}
	if err := m.Validate(); err != nil {
		return nil, badSpec(err)
	}
	return m, nil
}

// T3DSized returns the T3D profile on an x-by-y-by-z torus. The paper
// discusses partitions from 64 nodes up to 1024-node 2x8x8(x8) tori.
func T3DSized(x, y, z int) (*Machine, error) {
	topo, err := netsim.NewTorus3D(x, y, z)
	if err != nil {
		return nil, badSpec(err)
	}
	m := T3D()
	m.Topo = topo
	if err := m.Validate(); err != nil {
		return nil, badSpec(err)
	}
	return m, nil
}

// ParagonSized returns the Paragon profile on an x-by-y mesh. The paper
// calls out "the unfortunate aspect ratio of certain machine sizes
// (e.g., 112x16)" as a congestion hazard (§4.3).
func ParagonSized(x, y int) (*Machine, error) {
	topo, err := netsim.NewMesh2D(x, y)
	if err != nil {
		return nil, badSpec(err)
	}
	m := Paragon()
	m.Topo = topo
	if err := m.Validate(); err != nil {
		return nil, badSpec(err)
	}
	return m, nil
}

// Profiles returns the machines studied in the paper, in paper order.
// The experiment runner reproduces the paper's tables over exactly this
// list, so it deliberately excludes the modern hierarchical profiles;
// use AllProfiles for everything resolvable by name.
func Profiles() []*Machine { return []*Machine{T3D(), Paragon()} }

// AllProfiles returns every built-in profile: the paper's two machines
// followed by the modern hierarchical ones.
func AllProfiles() []*Machine {
	return append(Profiles(), MulticoreCluster(), CrayXE6())
}

// ByName returns the profile with the given name (as in Machine.Name,
// case-sensitive) or nil.
func ByName(name string) *Machine {
	for _, m := range AllProfiles() {
		if m.Name == name {
			return m
		}
	}
	return nil
}
