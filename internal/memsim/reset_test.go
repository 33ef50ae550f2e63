package memsim

import (
	"reflect"
	"testing"

	"ctcomm/internal/pattern"
	"ctcomm/internal/sim"
)

// traffic drives m through every kind of run — fast-forwarded and
// word-by-word stream runs of both policies, engine reads and writes
// and a materialized slice — so that every piece of state Reset must
// restore has moved away from its initial value.
func traffic(m *Memory) {
	const words = 1 << 12
	m.RunStream(pattern.NewStream(pattern.Contig(), 0, words),
		pattern.NewStream(pattern.Strided(5), 1<<30, words).ForWrites(), InterleaveWordwise)
	m.RunStream(pattern.NewStream(pattern.StridedBlock(64, 2), 4096, 300),
		pattern.NewStream(pattern.Contig(), 1<<30, 300).ForWrites(), InterleaveLoadsFirst)
	m.EngineWrite(pattern.NewStream(pattern.Strided(3), 64, 200))
	m.Run(pattern.NewStream(pattern.Contig(), 1<<20, 64).Accesses(true))
	// Long enough to fast-forward on the largest cache of ffVariants.
	m.RunStream(pattern.NewStream(pattern.Contig(), 0, 1<<16), nil, InterleaveWordwise)
}

// state is m's whole state but the fast-forward buffers, which Reset
// keeps and no run reads before writing.
func state(m *Memory) Memory {
	s := *m
	s.ff = nil
	return s
}

// poison sets every piece of run state to a value no fresh memory has,
// as a run interrupted between its accesses could leave it.
func poison(m *Memory) {
	for i := range m.cache.tags {
		m.cache.tags[i], m.cache.lru[i], m.cache.dirty[i] = int64(i), int64(i)+1, true
	}
	m.cache.stamp, m.cache.hits, m.cache.misses, m.cache.evictions = 7, 7, 7, 7
	m.dram.freeAt, m.dram.openPage, m.dram.busy, m.dram.rowHits, m.dram.rowMiss = 7, 7, 7, 7, 7
	m.sbValid, m.sbLine, m.sbReady, m.lastMissLine = true, 7, 7, 7
	m.wbOpen, m.wbLine, m.wbWords = true, 7, 7
	for _, r := range []*ring{&m.wbq, &m.pfq} {
		for i := range r.buf {
			r.buf[i] = 7
		}
		r.head, r.n = 1%len(r.buf), 1
	}
	m.pfqLastAddr = 7
	m.cert = Cert{Period: 7, D: Result{Loads: 7}}
}

// TestResetRestoresNew pins Reset's contract field by field: after real
// traffic, and after every piece of run state was poisoned, a reset
// memory is in exactly the state New returns, and Reset allocates
// nothing.
func TestResetRestoresNew(t *testing.T) {
	for _, cfg := range ffVariants() {
		fresh := state(MustNew(cfg))
		m := MustNew(cfg)
		traffic(m)
		if reflect.DeepEqual(state(m), fresh) {
			t.Fatalf("%s: the traffic left the memory in its fresh state", cfg.Name)
		}
		if m.ff == nil {
			t.Fatalf("%s: the traffic never probed for fast-forward", cfg.Name)
		}
		ff := m.ff
		m.Reset()
		if got := state(m); !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: after traffic, Reset gives\n%+v\nwant New's\n%+v", cfg.Name, got, fresh)
		}
		if m.ff != ff {
			t.Errorf("%s: Reset dropped the fast-forward buffers", cfg.Name)
		}
		poison(m)
		if allocs := testing.AllocsPerRun(5, m.Reset); allocs != 0 {
			t.Errorf("%s: Reset allocates %.0f times, want 0", cfg.Name, allocs)
		}
		if got := state(m); !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: after poisoning, Reset gives\n%+v\nwant New's\n%+v", cfg.Name, got, fresh)
		}
	}
}

// TestAcquireAppliesConfig pins what the pool re-applies: a memory
// handed back and acquired again under another configuration of the
// same geometry is in exactly the state New of that configuration
// returns, its results are New's, and its accesses count into the new
// caller's Stats alone.
func TestAcquireAppliesConfig(t *testing.T) {
	base := testConfig()
	others := []Config{base, base, base, base}
	others[1].ReadAhead, others[1].RowHitNs = true, 30
	others[2].CriticalWordFirst, others[2].Policy, others[2].WordNs = true, WriteThrough, 11
	others[3].LineBytes, others[3].CacheBytes, others[3].PageBytes = 64, 16*1024, 4096
	var prev *Memory
	var prevStats *sim.Stats
	for i, cfg := range others {
		st := new(sim.Stats)
		cfg.Stats = st
		m, err := Acquire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && m != prev {
			t.Fatalf("config %d: the pool did not hand back the memory released just before", i)
		}
		if got, want := state(m), state(MustNew(cfg)); !reflect.DeepEqual(got, want) {
			t.Errorf("config %d: acquired state\n%+v\nwant New's\n%+v", i, got, want)
		}
		before := prevStats.Accesses()
		ref := cfg
		ref.Stats = new(sim.Stats)
		traffic(m)
		refm := MustNew(ref)
		traffic(refm)
		if got, want := state(m), state(refm); !reflect.DeepEqual(got, want) {
			t.Errorf("config %d: after traffic, the acquired memory diverged from a fresh one", i)
		}
		if st.Accesses() == 0 {
			t.Errorf("config %d: the caller's Stats counted nothing", i)
		}
		if prevStats.Accesses() != before {
			t.Errorf("config %d: the previous caller's Stats kept counting", i)
		}
		m.Release()
		if m.cfg.Stats != nil {
			t.Errorf("config %d: an idle memory keeps its last caller's Stats alive", i)
		}
		prev, prevStats = m, st
	}
}

// TestAcquireRejectsBadConfig pins that the pool validates like New.
func TestAcquireRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.LineBytes = 24
	if _, err := Acquire(cfg); err == nil {
		t.Error("Acquire accepted an invalid configuration")
	}
}
