package netsim

import (
	"math"
	"strings"
	"testing"

	"ctcomm/internal/sim"
)

// testHierarchy is a 2-core-socket, 2-socket-node hierarchy with
// distinct constants per tier, over the testNetConfig link.
func testHierarchy() *Hierarchy {
	return &Hierarchy{
		CoresPerSocket: 2,
		SocketsPerNode: 2,
		IntraSocket:    LevelConfig{LinkMBps: 640, Congestion: 1, CopyCostNs: 1, StartupNs: 100},
		InterSocket:    LevelConfig{LinkMBps: 320, Congestion: 1, CopyCostNs: 2, StartupNs: 200},
		InterNode:      LevelConfig{LinkMBps: 160, Congestion: 2, CopyCostNs: 0, StartupNs: 400},
	}
}

func testHierConfig() Config {
	c := testNetConfig()
	c.Hier = testHierarchy()
	return c
}

func TestParseLevelSpellings(t *testing.T) {
	cases := map[string]Level{
		"intra-socket": IntraSocket, "intrasocket": IntraSocket, "socket": IntraSocket,
		"inter-socket": InterSocket, "intersocket": InterSocket, "numa": InterSocket,
		"inter-node": InterNode, "internode": InterNode, "node": InterNode, "network": InterNode,
		" Inter-Node ": InterNode,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "rack", "core"} {
		if _, err := ParseLevel(bad); err == nil {
			t.Errorf("ParseLevel(%q) should fail", bad)
		}
	}
	for _, l := range Levels() {
		back, err := ParseLevel(l.String())
		if err != nil || back != l {
			t.Errorf("ParseLevel(%v.String()) = %v, %v", l, back, err)
		}
	}
}

func TestLevelOfPlacement(t *testing.T) {
	h := testHierarchy() // sockets {0,1},{2,3},...; nodes {0..3},{4..7},...
	cases := []struct {
		src, dst int
		want     Level
	}{
		{0, 0, IntraSocket}, {0, 1, IntraSocket}, {2, 3, IntraSocket},
		{0, 2, InterSocket}, {1, 3, InterSocket}, {5, 7, InterSocket},
		{0, 4, InterNode}, {3, 4, InterNode}, {1, 9, InterNode},
	}
	for _, c := range cases {
		if got := h.LevelOf(c.src, c.dst); got != c.want {
			t.Errorf("LevelOf(%d, %d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestHierarchyNormalizeInheritsOuterTiers(t *testing.T) {
	h := &Hierarchy{CoresPerSocket: 2, SocketsPerNode: 2,
		InterNode: LevelConfig{LinkMBps: 200, Congestion: 2, StartupNs: 500}}
	h.Normalize(160)
	if h.InterSocket != h.InterNode {
		t.Errorf("unset inter-socket should inherit inter-node, got %+v", h.InterSocket)
	}
	if h.IntraSocket != h.InterSocket {
		t.Errorf("unset intra-socket should inherit inter-socket, got %+v", h.IntraSocket)
	}

	// An entirely unset hierarchy collapses to the flat link.
	h2 := &Hierarchy{CoresPerSocket: 1, SocketsPerNode: 1}
	h2.Normalize(160)
	for _, l := range Levels() {
		if lc := h2.Level(l); lc.LinkMBps != 160 || lc.Congestion != 1 {
			t.Errorf("%v after empty Normalize = %+v, want flat 160 MB/s floor 1", l, lc)
		}
	}

	// Idempotence: normalizing again changes nothing.
	h3 := testHierarchy()
	h3.Normalize(160)
	before := *h3
	h3.Normalize(160)
	if *h3 != before {
		t.Errorf("Normalize not idempotent: %+v vs %+v", *h3, before)
	}
}

func TestHierarchyValidate(t *testing.T) {
	ok := testHierarchy()
	if err := ok.Validate(8); err != nil {
		t.Fatalf("valid hierarchy rejected: %v", err)
	}
	if err := ok.Validate(0); err != nil {
		t.Fatalf("unknown node count (0) should skip divisibility: %v", err)
	}

	cases := []struct {
		name  string
		mut   func(*Hierarchy)
		nodes int
		want  string
	}{
		{"no cores", func(h *Hierarchy) { h.CoresPerSocket = 0 }, 8, "CoresPerSocket"},
		{"no sockets", func(h *Hierarchy) { h.SocketsPerNode = -1 }, 8, "SocketsPerNode"},
		{"indivisible", func(h *Hierarchy) {}, 6, "do not factor"},
		{"zero link", func(h *Hierarchy) { h.InterSocket.LinkMBps = 0 }, 8, "LinkMBps"},
		{"low congestion", func(h *Hierarchy) { h.IntraSocket.Congestion = 0.5 }, 8, "Congestion"},
		{"negative copy", func(h *Hierarchy) { h.InterNode.CopyCostNs = -1 }, 8, "costs"},
		{"negative startup", func(h *Hierarchy) { h.IntraSocket.StartupNs = -1 }, 8, "costs"},
	}
	for _, c := range cases {
		h := testHierarchy()
		c.mut(h)
		err := h.Validate(c.nodes)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.want, err)
		}
	}
}

func TestRateAtTiersAndFloors(t *testing.T) {
	c := testHierConfig()
	flat := testNetConfig()

	// Flat config: every tier answers exactly Rate.
	for _, l := range Levels() {
		if got, want := flat.RateAt(l, DataOnly, 2), flat.Rate(DataOnly, 2); got != want {
			t.Errorf("flat RateAt(%v) = %v, want Rate = %v", l, got, want)
		}
	}

	// Tiers are ordered: inner tiers are faster.
	intra := c.RateAt(IntraSocket, DataOnly, 1)
	inter := c.RateAt(InterSocket, DataOnly, 1)
	node := c.RateAt(InterNode, DataOnly, 1)
	if !(intra > inter && inter > node) {
		t.Errorf("tier rates not ordered: %v, %v, %v", intra, inter, node)
	}

	// The tier congestion floor clamps: inter-node has floor 2, so
	// congestion 1 and 2 answer the same, 4 answers half of that.
	if c.RateAt(InterNode, DataOnly, 1) != c.RateAt(InterNode, DataOnly, 2) {
		t.Error("congestion below the tier floor should clamp to the floor")
	}
	if got, want := c.RateAt(InterNode, DataOnly, 4), c.RateAt(InterNode, DataOnly, 2)/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("inter-node at congestion 4 = %v, want %v", got, want)
	}

	// Copy cost caps the rate below the wire rate.
	noCopy := c
	h := testHierarchy()
	h.IntraSocket.CopyCostNs = 0
	noCopy.Hier = h
	if !(c.RateAt(IntraSocket, DataOnly, 1) < noCopy.RateAt(IntraSocket, DataOnly, 1)) {
		t.Error("copy cost should strictly lower the tier rate")
	}
}

func TestLinkForRateInvertsRateAt(t *testing.T) {
	c := testHierConfig()
	for _, l := range Levels() {
		for _, m := range []Mode{DataOnly, AddrData} {
			want := c.Hier.Level(l).LinkMBps
			rate := c.RateAt(l, m, 1) // floors apply inside
			link, err := c.LinkForRate(l, m, rate)
			if err != nil {
				t.Fatalf("%v/%v: %v", l, m, err)
			}
			if math.Abs(link-want) > 1e-6*want {
				t.Errorf("%v/%v: LinkForRate(RateAt) = %v, want %v", l, m, link, want)
			}
		}
	}

	// A rate the copy cost alone caps below is unachievable.
	if _, err := c.LinkForRate(IntraSocket, DataOnly, 1e9); err == nil {
		t.Error("unachievable rate should error")
	}
	if _, err := c.LinkForRate(InterNode, DataOnly, -5); err == nil {
		t.Error("negative rate should error")
	}
}

// TestNetworkHierarchyTierRates drives the event simulator across tier
// boundaries: a transfer inside one socket must run at the intra-socket
// link rate and one across nodes at the inter-node rate (per-tier
// nsPerByteFor is what the engine folds in; startup and copy costs stay
// model-side by design).
func TestNetworkHierarchyTierRates(t *testing.T) {
	topo, _ := NewMesh2D(4, 2)
	cfg := testHierConfig()
	payload := int64(1 << 20)
	measure := func(src, dst int) sim.Time {
		n, err := NewNetwork(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n.Send(0, src, dst, payload, DataOnly)
	}
	intra := measure(0, 1) // same socket: 640 MB/s tier link
	node := measure(0, 4)  // different multi-core node: 160 MB/s tier link
	// Both transfers are one hop, so the duration ratio tracks the tier
	// link ratio (framing efficiency cancels).
	ratio := float64(node) / float64(intra)
	if math.Abs(ratio-4) > 0.2 {
		t.Errorf("inter-node/intra-socket engine time ratio = %v, want ~4 (tier links 160 vs 640)", ratio)
	}
}

// TestHierarchyFlatBitIdentical pins the determinism contract: adding
// the hierarchy layer must not perturb flat machines — nsPerByteFor
// with Hier == nil is the exact pre-hierarchy expression, so event
// times are bit-identical.
func TestHierarchyFlatBitIdentical(t *testing.T) {
	topo, _ := NewTorus3D(2, 2, 2)
	cfg := testNetConfig()
	n, err := NewNetwork(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.nsPerByteFor(0, 5), 1e3/cfg.LinkMBps; got != want {
		t.Errorf("flat nsPerByteFor = %v, want exactly %v", got, want)
	}
}
