package machine_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
	"ctcomm/internal/sim"
)

// The pooled simulators (memsim.Acquire, netsim.AcquireNetwork) must be
// indistinguishable from fresh ones on every machine profile: whatever
// traffic a memory or network ran before it was reset or handed back,
// and under whichever configuration of its geometry, it then answers
// bitwise like a simulator just built.

// memOp is one random run on a memory: a stream transfer under either
// policy, an engine read or write, or a materialized access slice.
type memOp func(*memsim.Memory) memsim.Result

func randomMemOp(r *rand.Rand) memOp {
	specs := []pattern.Spec{
		pattern.Contig(), pattern.Strided(1 + r.Intn(80)),
		pattern.StridedBlock(16+r.Intn(64), 1+r.Intn(8)), pattern.Indexed(),
	}
	words := 1 + r.Intn(1<<11)
	if r.Intn(3) == 0 {
		words = 1 << (13 + r.Intn(4)) // long enough to fast-forward
	}
	side := func(base int64) func() *pattern.Stream {
		spec := specs[r.Intn(len(specs))]
		if words > 1<<12 {
			spec = specs[r.Intn(2)] // keep long runs regular, hence quick
		}
		base += int64(r.Intn(4)) * 4096
		seed := r.Uint64()
		// Each run builds its own streams: runs advance them.
		return func() *pattern.Stream {
			st := pattern.NewStream(spec, base, words)
			if spec.Kind() == pattern.KindIndexed {
				st.WithIndex(pattern.Permutation(words, seed))
			}
			return st
		}
	}
	loads, stores := side(0), side(1<<30)
	switch r.Intn(6) {
	case 0:
		return func(m *memsim.Memory) memsim.Result {
			return m.RunStream(loads(), stores().ForWrites(), memsim.InterleaveWordwise)
		}
	case 1:
		return func(m *memsim.Memory) memsim.Result { return m.RunStream(loads(), nil, memsim.InterleaveWordwise) }
	case 2:
		return func(m *memsim.Memory) memsim.Result {
			return m.RunStream(loads(), stores().ForWrites(), memsim.InterleaveLoadsFirst)
		}
	case 3:
		return func(m *memsim.Memory) memsim.Result { return m.EngineRead(loads()) }
	case 4:
		return func(m *memsim.Memory) memsim.Result { return m.EngineWrite(stores()) }
	default:
		acc := loads().Accesses(r.Intn(2) == 0)
		if len(acc) > 4096 {
			acc = acc[:4096]
		}
		return func(m *memsim.Memory) memsim.Result { return m.Run(acc) }
	}
}

// sameGeometryMem returns cfg with random timings and policies but its
// cache lines and ways and its queue depths kept, so a pooled memory
// of cfg may serve it.
func sameGeometryMem(r *rand.Rand, cfg memsim.Config) memsim.Config {
	scale := func(v float64) float64 { return v * (0.5 + r.Float64()) }
	cfg.RowHitNs = scale(cfg.RowHitNs)
	cfg.RowMissNs = cfg.RowHitNs + scale(cfg.RowMissNs)
	cfg.WordNs = scale(cfg.WordNs)
	cfg.IssueLoadCy = scale(cfg.IssueLoadCy)
	cfg.ReadAhead = r.Intn(2) == 0
	cfg.CriticalWordFirst = r.Intn(2) == 0
	cfg.Policy = memsim.WritePolicy(r.Intn(3))
	if r.Intn(2) == 0 {
		cfg.LineBytes, cfg.CacheBytes, cfg.PageBytes = 2*cfg.LineBytes, 2*cfg.CacheBytes, 2*cfg.PageBytes
	}
	return cfg
}

// sameGeometryNet returns cfg with random link rate, chunking and
// framing but its ports kept.
func sameGeometryNet(r *rand.Rand, cfg netsim.Config) netsim.Config {
	cfg.LinkMBps *= 0.5 + r.Float64()
	cfg.ChunkBytes = 64 << r.Intn(5)
	cfg.PacketHeaderBytes = r.Intn(64)
	cfg.AddrBytes = r.Intn(16)
	return cfg
}

func randomFlows(r *rand.Rand, nodes int) []netsim.Flow {
	flows := make([]netsim.Flow, r.Intn(3*nodes))
	hot := r.Intn(nodes)
	for i := range flows {
		src, dst := r.Intn(nodes), r.Intn(nodes)
		if r.Intn(4) == 0 {
			dst = hot
		}
		flows[i] = netsim.Flow{Src: src, Dst: dst, Bytes: int64(r.Intn(1 << 14))}
	}
	return flows
}

// netOp is one random run on a network: a Batch or one SendStream.
type netOp struct {
	at    sim.Time
	flows []netsim.Flow
	mode  netsim.Mode
	batch bool
}

func randomNetOp(r *rand.Rand, nodes int) netOp {
	return netOp{at: sim.Time(r.Intn(1 << 20)), flows: randomFlows(r, nodes), mode: netsim.Mode(r.Intn(2)), batch: r.Intn(3) > 0}
}

func (op netOp) run(n *netsim.Network) []sim.Time {
	if op.batch {
		done, end := n.Batch(op.at, op.flows, op.mode)
		return append(done, end)
	}
	var out []sim.Time
	for _, f := range op.flows {
		out = append(out, n.SendStream(op.at, f.Src, f.Dst, f.Bytes, op.mode))
	}
	return out
}

// checkReusedMemory runs random traffic on a pooled memory of m under a
// random configuration of m's geometry, then checks two reuses against
// fresh memories: Reset in place, and Release followed by Acquire under
// m's own configuration and a new Stats.
func checkReusedMemory(t *testing.T, m *machine.Machine, r *rand.Rand) {
	t.Helper()
	earlier := sameGeometryMem(r, m.Mem)
	earlier.Stats = new(sim.Stats)
	used, err := memsim.Acquire(earlier)
	if err != nil {
		t.Fatal(err)
	}
	for i := r.Intn(4); i >= 0; i-- {
		randomMemOp(r)(used)
	}
	compare := func(how string, got *memsim.Memory, cfg memsim.Config) {
		t.Helper()
		fresh := memsim.MustNew(cfg)
		for i := 0; i < 2; i++ {
			op := randomMemOp(r)
			if g, w := op(got), op(fresh); g != w || got.Cert() != fresh.Cert() {
				t.Fatalf("%s %s run %d: reused memory gave %+v cert %+v, fresh %+v cert %+v",
					m.Name, how, i, g, got.Cert(), w, fresh.Cert())
			}
		}
	}
	mark := earlier.Stats.Accesses()
	used.Reset()
	reset := earlier
	reset.Stats = new(sim.Stats) // the fresh reference counts apart
	compare("after Reset", used, reset)
	if got, want := earlier.Stats.Accesses()-mark, reset.Stats.Accesses(); got != want {
		t.Fatalf("%s after Reset: Stats counted %d accesses, a fresh memory %d", m.Name, got, want)
	}

	used.Release()
	mine, ref := m.Mem, m.Mem
	mine.Stats, ref.Stats = new(sim.Stats), new(sim.Stats)
	again, err := memsim.Acquire(mine)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	if again != used {
		t.Fatalf("%s: the pool did not hand back the memory released just before", m.Name)
	}
	mark = earlier.Stats.Accesses()
	compare("after Release and Acquire", again, ref)
	if mine.Stats.Accesses() != ref.Stats.Accesses() || earlier.Stats.Accesses() != mark {
		t.Fatalf("%s: Stats attribution did not follow the caller: %d accesses, fresh %d, earlier caller +%d",
			m.Name, mine.Stats.Accesses(), ref.Stats.Accesses(), earlier.Stats.Accesses()-mark)
	}
}

// checkReusedNetwork is checkReusedMemory for m's network.
func checkReusedNetwork(t *testing.T, m *machine.Machine, r *rand.Rand) {
	t.Helper()
	earlier := sameGeometryNet(r, m.Net)
	earlier.Stats = new(sim.Stats)
	used, err := netsim.AcquireNetwork(m.Topo, earlier)
	if err != nil {
		t.Fatal(err)
	}
	for i := r.Intn(4); i >= 0; i-- {
		randomNetOp(r, m.Nodes()).run(used)
	}
	compare := func(how string, got *netsim.Network, cfg netsim.Config) {
		t.Helper()
		fresh := netsim.MustNewNetwork(m.Topo, cfg)
		for i := 0; i < 2; i++ {
			op := randomNetOp(r, m.Nodes())
			if g, w := op.run(got), op.run(fresh); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s %s op %d: reused network delivered %v, fresh %v", m.Name, how, i, g, w)
			}
		}
	}
	used.Reset()
	reset := earlier
	reset.Stats = new(sim.Stats)
	compare("after Reset", used, reset)

	used.Release()
	mine, ref := m.Net, m.Net
	mine.Stats, ref.Stats = new(sim.Stats), new(sim.Stats)
	again, err := netsim.AcquireNetwork(m.Topo, mine)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	if again != used {
		t.Fatalf("%s: the pool did not hand back the network released just before", m.Name)
	}
	mark := earlier.Stats.Events()
	compare("after Release and Acquire", again, ref)
	if mine.Stats.Events() != ref.Stats.Events() || mine.Stats.SimTime() != ref.Stats.SimTime() || earlier.Stats.Events() != mark {
		t.Fatalf("%s: Stats attribution did not follow the caller: %d events, fresh %d, earlier caller +%d",
			m.Name, mine.Stats.Events(), ref.Stats.Events(), earlier.Stats.Events()-mark)
	}
}

// TestReusedSimulatorMatchesFresh is the differential test of
// simulator reuse on every profile.
func TestReusedSimulatorMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, m := range machine.AllProfiles() {
			r := rand.New(rand.NewSource(seed))
			checkReusedMemory(t, m, r)
			checkReusedNetwork(t, m, r)
		}
	}
}

// FuzzReusedSimulatorMatchesFresh is TestReusedSimulatorMatchesFresh
// over fuzz-chosen profiles and seeds.
func FuzzReusedSimulatorMatchesFresh(f *testing.F) {
	ms := machine.AllProfiles()
	for i := range ms {
		f.Add(uint8(i), int64(i)*7919)
	}
	f.Fuzz(func(t *testing.T, profile uint8, seed int64) {
		m := ms[int(profile)%len(ms)]
		r := rand.New(rand.NewSource(seed))
		checkReusedMemory(t, m, r)
		checkReusedNetwork(t, m, r)
	})
}

// TestSimulatorPoolConcurrent acquires and releases memories and
// networks of every profile from several goroutines at once and
// requires every answer, and every goroutine's Stats, to be a fresh
// simulator's. Run it under the race detector.
func TestSimulatorPoolConcurrent(t *testing.T) {
	type job struct {
		m    *machine.Machine
		mem  []memOp
		net  []netOp
		want []memsim.Result
		sent [][]sim.Time
	}
	r := rand.New(rand.NewSource(3))
	var jobs []job
	for _, m := range machine.AllProfiles() {
		for k := 0; k < 3; k++ {
			j := job{m: m}
			fresh := memsim.MustNew(m.Mem)
			for i := 0; i < 3; i++ {
				op := randomMemOp(r)
				j.mem = append(j.mem, op)
				j.want = append(j.want, op(fresh))
			}
			net := netsim.MustNewNetwork(m.Topo, m.Net)
			for i := 0; i < 2; i++ {
				op := randomNetOp(r, m.Nodes())
				j.net = append(j.net, op)
				j.sent = append(j.sent, op.run(net))
			}
			jobs = append(jobs, j)
		}
	}
	const workers, rounds = 6, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds*len(jobs); i++ {
				j := jobs[(i+w)%len(jobs)]
				cfg := j.m.Mem
				cfg.Stats = new(sim.Stats)
				mem, err := memsim.Acquire(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				var accesses int64
				for k, op := range j.mem {
					if got := op(mem); got != j.want[k] {
						t.Errorf("%s worker %d: memory run %d gave %+v, fresh %+v", j.m.Name, w, k, got, j.want[k])
					}
					accesses += j.want[k].Loads + j.want[k].Stores
				}
				mem.Release()
				if cfg.Stats.Accesses() != accesses {
					t.Errorf("%s worker %d: Stats counted %d accesses, want %d", j.m.Name, w, cfg.Stats.Accesses(), accesses)
				}
				net, err := netsim.AcquireNetwork(j.m.Topo, j.m.Net)
				if err != nil {
					t.Error(err)
					return
				}
				for k, op := range j.net {
					if got := op.run(net); !reflect.DeepEqual(got, j.sent[k]) {
						t.Errorf("%s worker %d: network op %d delivered %v, fresh %v", j.m.Name, w, k, got, j.sent[k])
					}
				}
				net.Release()
			}
		}(w)
	}
	wg.Wait()
}
