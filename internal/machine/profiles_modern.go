package machine

import (
	"ctcomm/internal/memsim"
	"ctcomm/internal/netsim"
)

// The modern hierarchical profiles extend the paper's flat node
// architectures with the rate hierarchy of clusters of multi-core
// machines: per-tier link rate, congestion floor, copy cost and startup
// (Task & Chauhan's intra-socket / inter-socket / inter-node model),
// with constants of the magnitude González-Domínguez et al. fitted on a
// Cray XE. Unlike the T3D/Paragon numbers these are representative, not
// measured from the paper's tables — the point of the fitting subsystem
// (internal/calibrate) is that users replace them with constants fitted
// from their own measurements. The flat LinkMBps mirrors the inter-node
// tier so code paths that see only the flat rate stay coherent.

// MulticoreCluster returns the multi-core cluster profile; see
// NewMulticoreCluster.
func MulticoreCluster() *Machine { return mustProfile(NewMulticoreCluster()) }

// NewMulticoreCluster builds a commodity cluster of multi-core machines
// per Task & Chauhan: 4-core sockets, 2 sockets per node, 8 nodes on a
// switched interconnect modeled as an 8x8 mesh. Core pairs in one
// socket communicate through the shared cache (fast, but paying a
// per-word copy), sockets over the coherence links, nodes over the
// network; all 8 cores of a node share one network port.
func NewMulticoreCluster() (*Machine, error) {
	topo, err := netsim.NewMesh2D(8, 8)
	if err != nil {
		return nil, badSpec(err)
	}
	m := &Machine{
		Name: "Multicore Cluster",
		Mem: memsim.Config{
			Name:              "mcc-mem",
			ClockNs:           0.4, // 2.5 GHz cores
			CacheBytes:        32 * 1024,
			LineBytes:         64,
			Ways:              8,
			Policy:            memsim.WriteBack,
			PageBytes:         4096,
			RowHitNs:          15,
			RowMissNs:         45,
			WordNs:            1.0, // ~8 GB/s per-core stream
			BusOverheadNs:     10,
			CriticalWordFirst: true,
			ReadAhead:         true, // hardware stream prefetcher
			StreamHitCy:       1,
			WBQEntries:        16,
			PFQDepth:          8,
			PFQOpNs:           2,
			EngineOpNs:        5,
			IssueLoadCy:       1,
			IssueStoreCy:      1,
		},
		Net: netsim.Config{
			Name:               "mcc-net",
			LinkMBps:           1200, // == inter-node tier
			PacketPayloadBytes: 2048,
			PacketHeaderBytes:  64,
			AddrBytes:          8,
			PairControlBytes:   2,
			NodesPerPort:       8, // all cores of a node share the NIC
			ChunkBytes:         512,
			HopLatencyNs:       100,
			Hier: &netsim.Hierarchy{
				CoresPerSocket: 4,
				SocketsPerNode: 2,
				IntraSocket: netsim.LevelConfig{
					LinkMBps:   4800,
					Congestion: 1,
					CopyCostNs: 1.0, // shared-cache copy per word
					StartupNs:  400,
				},
				InterSocket: netsim.LevelConfig{
					LinkMBps:   2400,
					Congestion: 1,
					CopyCostNs: 2.0, // cross-socket coherence copy
					StartupNs:  700,
				},
				InterNode: netsim.LevelConfig{
					LinkMBps:   1200,
					Congestion: 2, // shared NIC, like the T3D's shared ports
					StartupNs:  1800,
				},
			},
		},
		Topo: topo,
		NI: NIConfig{
			PortStoreNs: 10,
			PortLoadNs:  10,
			InjectMBps:  1600,
			EjectMBps:   1600,
		},
		Deposit: DepositConfig{
			Present: true,
			Contig:  true,
			Strided: true, // RDMA scatter, but no per-word indexing
			SetupNs: 500,
		},
		Fetch: FetchConfig{
			Present:    true,
			ContigOnly: true,
			RateMBps:   1400,
			SetupNs:    500,
		},
		CoProcessor:       false,
		BusMBps:           6400,
		CoProcPenalty:     1.0,
		DefaultCongestion: 2,
		LibOverheadNs:     1500, // MPI pt2pt latency ~1.5 us
		PVMOverheadNs:     20e3, // buffered portable layer
	}
	if err := m.Validate(); err != nil {
		return nil, badSpec(err)
	}
	return m, nil
}

// CrayXE6 returns the XE-like torus profile; see NewCrayXE6.
func CrayXE6() *Machine { return mustProfile(NewCrayXE6()) }

// NewCrayXE6 builds an XE-like machine: dual-socket Opteron nodes on a
// Gemini-style 3D torus, the platform González-Domínguez et al.
// calibrated their hierarchical communication model on. Remote memory
// access (FMA for fine grain, BTE for bulk) gives a flexible deposit
// path, with HyperTransport between sockets and the shared cache inside
// one.
func NewCrayXE6() (*Machine, error) {
	topo, err := netsim.NewTorus3D(4, 4, 4)
	if err != nil {
		return nil, badSpec(err)
	}
	m := &Machine{
		Name: "Cray XE6",
		Mem: memsim.Config{
			Name:              "xe6-mem",
			ClockNs:           0.435, // 2.3 GHz Opteron
			CacheBytes:        64 * 1024,
			LineBytes:         64,
			Ways:              2,
			Policy:            memsim.WriteBack,
			PageBytes:         4096,
			RowHitNs:          12,
			RowMissNs:         40,
			WordNs:            0.8,
			BusOverheadNs:     8,
			CriticalWordFirst: true,
			ReadAhead:         true,
			StreamHitCy:       1,
			WBQEntries:        8,
			PFQDepth:          8,
			PFQOpNs:           2,
			EngineOpNs:        4,
			IssueLoadCy:       1,
			IssueStoreCy:      1,
		},
		Net: netsim.Config{
			Name:               "xe6-net",
			LinkMBps:           2800, // == inter-node tier (Gemini effective)
			PacketPayloadBytes: 64,   // Gemini 64-byte packets
			PacketHeaderBytes:  16,
			AddrBytes:          8,
			PairControlBytes:   2,
			NodesPerPort:       8, // a Gemini serves the node's cores
			ChunkBytes:         512,
			HopLatencyNs:       105, // ~1.5 us / 14 hops worst case
			Hier: &netsim.Hierarchy{
				CoresPerSocket: 4,
				SocketsPerNode: 2,
				IntraSocket: netsim.LevelConfig{
					LinkMBps:   5800,
					Congestion: 1,
					CopyCostNs: 0.8,
					StartupNs:  600,
				},
				InterSocket: netsim.LevelConfig{
					LinkMBps:   3000, // HyperTransport
					Congestion: 1,
					CopyCostNs: 1.2,
					StartupNs:  900,
				},
				InterNode: netsim.LevelConfig{
					LinkMBps:   2800,
					Congestion: 2,
					StartupNs:  1400,
				},
			},
		},
		Topo: topo,
		NI: NIConfig{
			PortStoreNs: 8, // FMA window store
			PortLoadNs:  8,
			InjectMBps:  5000,
			EjectMBps:   5000,
		},
		Deposit: DepositConfig{
			Present: true,
			Contig:  true,
			Strided: true,
			Indexed: true, // FMA handles word-grain remote stores
			SetupNs: 300,
		},
		Fetch: FetchConfig{
			Present:    true,
			ContigOnly: true, // BTE get is block-oriented
			RateMBps:   2600,
			SetupNs:    300,
		},
		CoProcessor:       false,
		BusMBps:           8500,
		CoProcPenalty:     1.0,
		DefaultCongestion: 2,
		LibOverheadNs:     1000, // ~1 us one-sided put
		PVMOverheadNs:     15e3,
	}
	if err := m.Validate(); err != nil {
		return nil, badSpec(err)
	}
	return m, nil
}
