package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"ctcomm/internal/sim"
)

// TestArrivalHeapTimeOrder pops arrivals in time order whatever order
// they were pushed in.
func TestArrivalHeapTimeOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h arrivalHeap
	var want []sim.Time
	for seq := uint64(0); seq < 200; seq++ {
		at := sim.Time(r.Intn(50))
		h.push(arrival{t: at, seq: seq})
		want = append(want, at)
	}
	slices.Sort(want)
	for i, w := range want {
		if a := h.pop(); a.t != w {
			t.Fatalf("pop %d at %v, want %v", i, a.t, w)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d arrivals left after popping all", len(h))
	}
}

// TestArrivalHeapTiesAreFIFO pops arrivals of equal time in push order,
// also when pushes and pops interleave.
func TestArrivalHeapTiesAreFIFO(t *testing.T) {
	var h arrivalHeap
	var seq uint64
	for i := 0; i < 10; i++ {
		h.push(arrival{t: 100, seq: seq, chunk: int64(i)})
		seq++
	}
	for i := 0; i < 10; i++ {
		a := h.pop()
		if a.chunk != int64(i) {
			t.Fatalf("tie order broken: pop %d returned arrival %d", i, a.chunk)
		}
		h.push(arrival{t: 100, seq: seq, chunk: int64(10 + i)})
		seq++
	}
	for i := 10; i < 20; i++ {
		if a := h.pop(); a.chunk != int64(i) {
			t.Fatalf("tie order broken: pop returned arrival %d, want %d", a.chunk, i)
		}
	}
}

// TestBatchEventCount pins what Stats counts for a Batch: one event per
// chunk-hop, congested or not.
func TestBatchEventCount(t *testing.T) {
	to, _ := NewTorus3D(4, 4, 4)
	cfg := testNetConfig()
	var st sim.Stats
	cfg.Stats = &st
	n := MustNewNetwork(to, cfg)
	payload := int64(64 * 1024)
	chunks := (cfg.WireBytes(DataOnly, payload) + int64(cfg.ChunkBytes) - 1) / int64(cfg.ChunkBytes)
	hops := int64(len(to.Route(0, 2)) + 2)
	n.Batch(0, []Flow{{0, 2, payload}, {5, 5, payload}}, DataOnly)
	if st.Events() != chunks*hops {
		t.Fatalf("one flow: %d events, want %d chunks x %d hops", st.Events(), chunks, hops)
	}
	n.Reset()
	n.Batch(0, []Flow{{0, 2, payload}, {1, 2, payload}}, DataOnly) // share 2's ejection port
	want := chunks * (2*hops + int64(len(to.Route(1, 2))+2))
	if st.Events() != want {
		t.Fatalf("congested pair: %d events in total, want %d", st.Events(), want)
	}
}

// TestBatchAllocsPerFlow bounds Batch's allocations by its flows, not
// by its chunk-hops: a warm network allocates only the returned done
// slice, and a fresh one adds only the growth of its scratch buffers.
func TestBatchAllocsPerFlow(t *testing.T) {
	to, _ := NewTorus3D(4, 4, 4)
	flows := Shift(64, 3, 64*1024) // 64 flows of 128 chunks over 5 hops
	warm := MustNewNetwork(to, testNetConfig())
	warm.Batch(0, flows, DataOnly)
	if avg := testing.AllocsPerRun(5, func() {
		warm.Reset()
		warm.Batch(0, flows, DataOnly)
	}); avg != 1 {
		t.Errorf("warm network: %v allocs per Batch, want 1 (the done slice)", avg)
	}
	if avg := testing.AllocsPerRun(5, func() {
		MustNewNetwork(to, testNetConfig()).Batch(0, flows, DataOnly)
	}); avg > float64(len(flows)) {
		t.Errorf("fresh network: %v allocs per Batch of %d flows, want at most one per flow", avg, len(flows))
	}
}
