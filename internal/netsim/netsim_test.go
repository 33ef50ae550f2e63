package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"ctcomm/internal/sim"
)

func testNetConfig() Config {
	return Config{
		Name:               "testnet",
		LinkMBps:           160,
		PacketPayloadBytes: 128,
		PacketHeaderBytes:  16,
		AddrBytes:          8,
		PairControlBytes:   4,
		NodesPerPort:       1,
		ChunkBytes:         512,
	}
}

func TestTorusCoordRoundTrip(t *testing.T) {
	to, err := NewTorus3D(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < to.Nodes(); n++ {
		x, y, z := to.Coord(n)
		if to.NodeAt(x, y, z) != n {
			t.Fatalf("coord round trip failed for node %d", n)
		}
	}
}

func TestTorusRouteLength(t *testing.T) {
	to, _ := NewTorus3D(4, 4, 4)
	// Distance 1 neighbors.
	if got := len(to.Route(0, 1)); got != 1 {
		t.Errorf("route 0->1 length %d, want 1", got)
	}
	// Wraparound: 0 -> 3 in x should take 1 hop backwards.
	if got := len(to.Route(0, 3)); got != 1 {
		t.Errorf("route 0->3 length %d, want 1 (wraparound)", got)
	}
	// Self route is empty.
	if got := to.Route(5, 5); got != nil {
		t.Errorf("self route = %v, want nil", got)
	}
}

func TestTorusRouteIsShortest(t *testing.T) {
	to, _ := NewTorus3D(4, 4, 2)
	manhattan := func(src, dst int) int {
		sx, sy, sz := to.Coord(src)
		dx, dy, dz := to.Coord(dst)
		d := 0
		for _, p := range [][3]int{{sx, dx, to.X}, {sy, dy, to.Y}, {sz, dz, to.Z}} {
			fwd := ((p[1]-p[0])%p[2] + p[2]) % p[2]
			bwd := p[2] - fwd
			if fwd < bwd {
				d += fwd
			} else {
				d += bwd
			}
		}
		return d
	}
	for src := 0; src < to.Nodes(); src++ {
		for dst := 0; dst < to.Nodes(); dst++ {
			if got, want := len(to.Route(src, dst)), manhattan(src, dst); got != want {
				t.Fatalf("route %d->%d length %d, want %d", src, dst, got, want)
			}
		}
	}
}

func TestMeshRouteLength(t *testing.T) {
	m, _ := NewMesh2D(8, 4)
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			sx, sy := m.Coord(src)
			dx, dy := m.Coord(dst)
			want := int(math.Abs(float64(dx-sx)) + math.Abs(float64(dy-sy)))
			if got := len(m.Route(src, dst)); got != want {
				t.Fatalf("route %d->%d length %d, want %d", src, dst, got, want)
			}
		}
	}
}

func TestMeshHasNoWraparound(t *testing.T) {
	m, _ := NewMesh2D(8, 1)
	// 0 -> 7 must take 7 hops in a mesh (vs 1 on a ring).
	if got := len(m.Route(0, 7)); got != 7 {
		t.Errorf("route 0->7 length %d, want 7", got)
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewTorus3D(0, 1, 1); err == nil {
		t.Error("NewTorus3D(0,1,1) should fail")
	}
	if _, err := NewMesh2D(1, 0); err == nil {
		t.Error("NewMesh2D(1,0) should fail")
	}
}

func TestTopologyNames(t *testing.T) {
	to, _ := NewTorus3D(2, 8, 8)
	if to.Name() != "torus-2x8x8" {
		t.Errorf("torus name = %q", to.Name())
	}
	m, _ := NewMesh2D(16, 4)
	if m.Name() != "mesh-16x4" {
		t.Errorf("mesh name = %q", m.Name())
	}
}

// Property: every routed link id is within [0, Links()) and routes are
// deterministic.
func TestRouteIDsInRangeProperty(t *testing.T) {
	to, _ := NewTorus3D(4, 4, 4)
	f := func(sRaw, dRaw uint8) bool {
		src := int(sRaw) % to.Nodes()
		dst := int(dRaw) % to.Nodes()
		r1 := to.Route(src, dst)
		r2 := to.Route(src, dst)
		if len(r1) != len(r2) {
			return false
		}
		for i := range r1 {
			if r1[i] != r2[i] || r1[i] < 0 || r1[i] >= to.Links() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	if DataOnly.String() != "Nd" || AddrData.String() != "Nadp" {
		t.Error("unexpected mode strings")
	}
}

func TestConfigValidation(t *testing.T) {
	good := testNetConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.LinkMBps = 0 },
		func(c *Config) { c.PacketPayloadBytes = 0 },
		func(c *Config) { c.PacketHeaderBytes = -1 },
		func(c *Config) { c.AddrBytes = -1 },
		func(c *Config) { c.NodesPerPort = 0 },
		func(c *Config) { c.ChunkBytes = 0 },
	}
	for i, mut := range muts {
		c := testNetConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed", i)
		}
	}
}

func TestEfficiencyAndRate(t *testing.T) {
	c := testNetConfig()
	// Nd: 128/(128+16) of 160 MB/s = 142.2 MB/s.
	if got := c.Rate(DataOnly, 1); math.Abs(got-142.2) > 0.1 {
		t.Errorf("Nd rate = %.2f, want 142.2", got)
	}
	// Nadp: 8/(8+8+4) of 160 = 64 MB/s.
	if got := c.Rate(AddrData, 1); math.Abs(got-64.0) > 0.1 {
		t.Errorf("Nadp rate = %.2f, want 64", got)
	}
	// Congestion divides the rate.
	if got := c.Rate(DataOnly, 2); math.Abs(got-71.1) > 0.1 {
		t.Errorf("Nd rate@2 = %.2f, want 71.1", got)
	}
	// Congestion < 1 clamps to 1.
	if c.Rate(DataOnly, 0.5) != c.Rate(DataOnly, 1) {
		t.Error("congestion below 1 should clamp")
	}
}

func TestWireBytes(t *testing.T) {
	c := testNetConfig()
	// 1024 payload bytes = 8 packets -> 1024 + 8*16.
	if got := c.WireBytes(DataOnly, 1024); got != 1024+8*16 {
		t.Errorf("Nd wire bytes = %d", got)
	}
	// Nadp: per 8-byte word, 12 extra bytes.
	if got := c.WireBytes(AddrData, 1024); got != 1024+128*12 {
		t.Errorf("Nadp wire bytes = %d", got)
	}
	if got := c.WireBytes(DataOnly, 0); got != 0 {
		t.Errorf("zero payload wire bytes = %d", got)
	}
}

func TestShiftPattern(t *testing.T) {
	flows := Shift(8, 1, 100)
	if len(flows) != 8 {
		t.Fatalf("len = %d, want 8", len(flows))
	}
	for _, f := range flows {
		if f.Dst != (f.Src+1)%8 {
			t.Errorf("flow %v not a shift by 1", f)
		}
	}
	// Offset 0 produces no flows.
	if got := Shift(8, 0, 100); len(got) != 0 {
		t.Errorf("shift by 0 produced %d flows", len(got))
	}
}

func TestAllToAllPattern(t *testing.T) {
	flows := AllToAll(4, 10)
	if len(flows) != 12 {
		t.Fatalf("len = %d, want 12", len(flows))
	}
	seen := map[[2]int]bool{}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Error("self flow in all-to-all")
		}
		seen[[2]int{f.Src, f.Dst}] = true
	}
	if len(seen) != 12 {
		t.Error("duplicate flows")
	}
}

func TestCongestionShiftOnRing(t *testing.T) {
	to, _ := NewTorus3D(8, 1, 1)
	flows := Shift(8, 1, 100)
	// Each +x link carries exactly one flow; private ports.
	if got := CongestionOf(to, flows, 1); got != 1 {
		t.Errorf("congestion = %v, want 1", got)
	}
	// Shared ports (2 nodes/port) make the minimum congestion 2.
	if got := CongestionOf(to, flows, 2); got != 2 {
		t.Errorf("congestion with shared ports = %v, want 2", got)
	}
}

func TestCongestionEmpty(t *testing.T) {
	to, _ := NewTorus3D(4, 1, 1)
	if got := CongestionOf(to, nil, 1); got != 0 {
		t.Errorf("empty congestion = %v, want 0", got)
	}
}

func TestCongestionGrowsWithLoad(t *testing.T) {
	to, _ := NewTorus3D(4, 4, 1)
	c1 := CongestionOf(to, Shift(16, 1, 1), 1)
	c2 := CongestionOf(to, AllToAll(16, 1), 1)
	if c2 <= c1 {
		t.Errorf("all-to-all congestion %v should exceed shift %v", c2, c1)
	}
}

func TestNetworkSendDeliversAtLinkRate(t *testing.T) {
	to, _ := NewTorus3D(4, 1, 1)
	n := MustNewNetwork(to, testNetConfig())
	payload := int64(1 << 20)
	done := n.Send(0, 0, 1, payload, DataOnly)
	gotMBps := float64(payload) * 1e3 / float64(done)
	want := testNetConfig().Rate(DataOnly, 1)
	if math.Abs(gotMBps-want)/want > 0.05 {
		t.Errorf("send rate %.1f MB/s, want ~%.1f", gotMBps, want)
	}
}

func TestNetworkAddrDataSlower(t *testing.T) {
	to, _ := NewTorus3D(4, 1, 1)
	n := MustNewNetwork(to, testNetConfig())
	d1 := n.Send(0, 0, 1, 1<<20, DataOnly)
	n.Reset()
	d2 := n.Send(0, 0, 1, 1<<20, AddrData)
	if d2 <= d1 {
		t.Errorf("Nadp delivery %v should be later than Nd %v", d2, d1)
	}
}

func TestNetworkBatchCongestionHalvesRate(t *testing.T) {
	// Two flows over the same link run at half rate each.
	to, _ := NewTorus3D(8, 1, 1)
	cfg := testNetConfig()
	n := MustNewNetwork(to, cfg)
	payload := int64(1 << 20)
	single := n.Send(0, 0, 1, payload, DataOnly)
	n.Reset()
	// Flows 0->2 and 1->2... route 0->2 uses links (0,+x),(1,+x); 1->2 uses (1,+x):
	// link (1,+x) carries both.
	_, makespan := n.Batch(0, []Flow{{0, 2, payload}, {1, 2, payload}}, DataOnly)
	ratio := float64(makespan) / float64(single)
	if ratio < 1.8 || ratio > 2.3 {
		t.Errorf("congested makespan ratio = %.2f, want ~2", ratio)
	}
}

func TestNetworkSharedPortSerializes(t *testing.T) {
	// Nodes 0 and 1 share a port (NodesPerPort=2); their simultaneous
	// sends on disjoint links still serialize at injection.
	to, _ := NewTorus3D(8, 1, 1)
	cfg := testNetConfig()
	cfg.NodesPerPort = 2
	n := MustNewNetwork(to, cfg)
	payload := int64(1 << 20)
	_, shared := n.Batch(0, []Flow{{0, 7, payload}, {1, 2, payload}}, DataOnly)
	cfg2 := testNetConfig()
	n2 := MustNewNetwork(to, cfg2)
	_, private := n2.Batch(0, []Flow{{0, 7, payload}, {1, 2, payload}}, DataOnly)
	if float64(shared)/float64(private) < 1.5 {
		t.Errorf("shared port makespan %v not ~2x private %v", shared, private)
	}
}

func TestNetworkSelfSendImmediate(t *testing.T) {
	to, _ := NewTorus3D(4, 1, 1)
	n := MustNewNetwork(to, testNetConfig())
	if done := n.Send(100, 2, 2, 1<<20, DataOnly); done != 100 {
		t.Errorf("self send done at %v, want 100", done)
	}
}

func TestNetworkBatchEmptyFlows(t *testing.T) {
	to, _ := NewTorus3D(4, 1, 1)
	n := MustNewNetwork(to, testNetConfig())
	done, makespan := n.Batch(50, nil, DataOnly)
	if len(done) != 0 || makespan != 50 {
		t.Errorf("empty batch: done=%v makespan=%v", done, makespan)
	}
}

func TestNetworkRejectsBadConfig(t *testing.T) {
	to, _ := NewTorus3D(4, 1, 1)
	cfg := testNetConfig()
	cfg.LinkMBps = -1
	if _, err := NewNetwork(to, cfg); err == nil {
		t.Error("NewNetwork should reject bad config")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewNetwork should panic")
		}
	}()
	MustNewNetwork(to, cfg)
}

// Property: batch makespan is monotone in payload size.
func TestBatchMonotoneProperty(t *testing.T) {
	to, _ := NewTorus3D(4, 2, 1)
	f := func(kRaw uint8) bool {
		k := int64(kRaw)*1024 + 1024
		n1 := MustNewNetwork(to, testNetConfig())
		_, m1 := n1.Batch(0, Shift(8, 1, k), DataOnly)
		n2 := MustNewNetwork(to, testNetConfig())
		_, m2 := n2.Batch(0, Shift(8, 1, 2*k), DataOnly)
		return m2 > m1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBatchCircuitSerializesSharedLinks(t *testing.T) {
	to, _ := NewTorus3D(8, 1, 1)
	n := MustNewNetwork(to, testNetConfig())
	payload := int64(1 << 18)
	// Flows 0->2 and 1->2 share link (1,+x) and the ejection port: under
	// blocking wormhole they serialize entirely.
	done, makespan := n.BatchCircuit(0, []Flow{{0, 2, payload}, {1, 2, payload}}, DataOnly)
	single := float64(testNetConfig().WireBytes(DataOnly, payload)) * 1e3 / 160
	if r := float64(makespan) / single; r < 1.95 || r > 2.1 {
		t.Errorf("circuit makespan ratio = %.2f, want ~2 (full serialization)", r)
	}
	if done[0] == done[1] {
		t.Error("serialized worms cannot finish together")
	}
}

func TestBatchCircuitDisjointPathsOverlap(t *testing.T) {
	to, _ := NewTorus3D(8, 1, 1)
	n := MustNewNetwork(to, testNetConfig())
	payload := int64(1 << 18)
	done, makespan := n.BatchCircuit(0, []Flow{{0, 1, payload}, {4, 5, payload}}, DataOnly)
	if done[0] != done[1] {
		t.Error("disjoint worms should finish together")
	}
	single := sim.Time(float64(testNetConfig().WireBytes(DataOnly, payload)) * 1e3 / 160)
	if makespan > single+single/10 {
		t.Errorf("disjoint circuit makespan %v >> single message %v", makespan, single)
	}
}

// Property: every flow's delivery time respects the physical lower
// bound (its own wire bytes at full link rate) and the batch makespan
// is at least the slowest flow's lower bound.
func TestBatchDeliveryLowerBoundProperty(t *testing.T) {
	to, _ := NewTorus3D(4, 4, 1)
	cfg := testNetConfig()
	f := func(kRaw uint8, offRaw uint8) bool {
		bytes := int64(kRaw)*512 + 512
		off := int(offRaw)%15 + 1
		n := MustNewNetwork(to, cfg)
		flows := Shift(16, off, bytes)
		done, makespan := n.Batch(0, flows, DataOnly)
		var worst sim.Time
		for i, f := range flows {
			lower := sim.Time(float64(cfg.WireBytes(DataOnly, f.Bytes)) * 1e3 / cfg.LinkMBps)
			if done[i] < lower {
				return false
			}
			if done[i] > worst {
				worst = done[i]
			}
		}
		return makespan == worst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: circuit-mode makespan is never below fair-multiplexed
// makespan for the same traffic (blocking can only hurt).
func TestCircuitNeverBeatsChunkedProperty(t *testing.T) {
	to, _ := NewTorus3D(4, 2, 1)
	cfg := testNetConfig()
	f := func(offRaw uint8) bool {
		off := int(offRaw)%7 + 1
		flows := Shift(8, off, 64*1024)
		a := MustNewNetwork(to, cfg)
		_, chunked := a.Batch(0, flows, DataOnly)
		b := MustNewNetwork(to, cfg)
		_, circuit := b.BatchCircuit(0, flows, DataOnly)
		return circuit >= chunked-chunked/20 // allow rounding slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestSendStreamMatchesBatch proves the analytic single-flow fast path
// is indistinguishable from the chunk-level event simulation: delivery
// times, recorded statistics, and per-resource accounting must all be
// identical, including across repeated sends on a warm network.
func TestSendStreamMatchesBatch(t *testing.T) {
	topo, _ := NewTorus3D(4, 4, 4)
	payloads := []int64{0, 1, 100, 511, 512, 513, 4096, 1 << 20}
	for _, mode := range []Mode{DataOnly, AddrData} {
		var sa, sb sim.Stats
		cfgA, cfgB := testNetConfig(), testNetConfig()
		cfgA.Stats, cfgB.Stats = &sa, &sb
		fast := MustNewNetwork(topo, cfgA)
		ref := MustNewNetwork(topo, cfgB)
		at := sim.Time(0)
		for i, p := range payloads {
			src, dst := (i*7)%topo.Nodes(), (i*13+5)%topo.Nodes()
			got := fast.SendStream(at, src, dst, p, mode)
			want, _ := ref.Batch(at, []Flow{{Src: src, Dst: dst, Bytes: p}}, mode)
			if got != want[0] {
				t.Fatalf("mode %v payload %d: SendStream %v != Batch %v", mode, p, got, want[0])
			}
			if sa.Events() != sb.Events() || sa.SimTime() != sb.SimTime() {
				t.Fatalf("mode %v payload %d: stats diverge: events %d/%d simNs %v/%v",
					mode, p, sa.Events(), sb.Events(), sa.SimTime(), sb.SimTime())
			}
			at = got // warm: next send starts when this one delivered
		}
		for id, r := range ref.links {
			f := fast.link(id)
			if f.FreeAt() != r.FreeAt() || f.Busy() != r.Busy() || f.Claims() != r.Claims() ||
				f.Utilization() != r.Utilization() {
				t.Errorf("mode %v link %d: fast {%v %v %d} != ref {%v %v %d}",
					mode, id, f.FreeAt(), f.Busy(), f.Claims(), r.FreeAt(), r.Busy(), r.Claims())
			}
		}
	}
}

// TestSendStreamPipelines checks the paper's §4 pipelining rule on the
// path every point-to-point message takes. A message crossing h
// resources in chunks is a flow shop: it completes in its bottleneck
// stage's total work plus one chunk time per further hop to fill the
// pipeline, which lies between the busiest stage's work (full overlap)
// and the sum of all stages' work (no overlap).
func TestSendStreamPipelines(t *testing.T) {
	topo, _ := NewTorus3D(4, 4, 4)
	f := func(srcRaw, dstRaw uint8, payloadRaw uint32, addrData bool) bool {
		src, dst := int(srcRaw)%topo.Nodes(), int(dstRaw)%topo.Nodes()
		if src == dst {
			return true
		}
		mode := DataOnly
		if addrData {
			mode = AddrData
		}
		n := MustNewNetwork(topo, testNetConfig())
		const at = sim.Time(1000)
		span := n.SendStream(at, src, dst, int64(payloadRaw%(1<<20))+1, mode) - at
		path := n.path(src, dst)
		var sum, bottleneck sim.Time
		for _, r := range path {
			sum += r.Busy()
			if r.Busy() > bottleneck {
				bottleneck = r.Busy()
			}
		}
		fill := chunkDur(int64(n.cfg.ChunkBytes), n.nsPerByteFor(src, dst))
		if fill > bottleneck {
			fill = bottleneck // a one-chunk message
		}
		if span != bottleneck+sim.Time(len(path)-1)*fill || span > sum {
			t.Logf("%d->%d: span %v, bottleneck %v, fill %v over %d hops, serial %v",
				src, dst, span, bottleneck, fill, len(path), sum)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSendStreamFallsBackOnBusyPath overlaps two sends so the second
// finds a busy injection port; the fast path must defer to Batch and
// still match a pure-Batch network exactly.
func TestSendStreamFallsBackOnBusyPath(t *testing.T) {
	topo, _ := NewTorus3D(2, 2, 2)
	fast := MustNewNetwork(topo, testNetConfig())
	ref := MustNewNetwork(topo, testNetConfig())

	d1 := fast.SendStream(0, 0, 1, 1<<16, DataOnly)
	d2 := fast.SendStream(d1/2, 0, 3, 1<<16, DataOnly) // overlaps on inj0

	r1, _ := ref.Batch(0, []Flow{{Src: 0, Dst: 1, Bytes: 1 << 16}}, DataOnly)
	r2, _ := ref.Batch(r1[0]/2, []Flow{{Src: 0, Dst: 3, Bytes: 1 << 16}}, DataOnly)
	if d1 != r1[0] || d2 != r2[0] {
		t.Fatalf("busy-path sends diverge: %v/%v vs %v/%v", d1, d2, r1[0], r2[0])
	}
	if d2 <= d1 {
		t.Fatalf("second send should be delayed by the busy port: %v <= %v", d2, d1)
	}
}
