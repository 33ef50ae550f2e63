package xfer

import (
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/pattern"
)

const testWords = 1 << 14

func TestCopyRejectsPortPatterns(t *testing.T) {
	n := machine.T3D().NewNode(0)
	if _, err := Copy(n, pattern.Fixed(), pattern.Contig(), 16); err == nil {
		t.Error("Copy with a port read should fail")
	}
	if _, err := Copy(n, pattern.Contig(), pattern.Fixed(), 16); err == nil {
		t.Error("Copy with a port write should fail")
	}
}

func TestCopyContiguousFasterThanStrided(t *testing.T) {
	for _, m := range machine.Profiles() {
		c, err := Copy(m.NewNode(0), pattern.Contig(), pattern.Contig(), testWords)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Copy(m.NewNode(0), pattern.Strided(64), pattern.Strided(64), testWords)
		if err != nil {
			t.Fatal(err)
		}
		if c.MBps() <= s.MBps() {
			t.Errorf("%s: contiguous copy %.1f <= strided %.1f MB/s", m.Name, c.MBps(), s.MBps())
		}
	}
}

func TestT3DStridedStoresBeatStridedLoads(t *testing.T) {
	// The T3D's write queue favors strided stores (paper Fig. 4).
	m := machine.T3D()
	sw, _ := Copy(m.NewNode(0), pattern.Contig(), pattern.Strided(64), testWords)
	sl, _ := Copy(m.NewNode(0), pattern.Strided(64), pattern.Contig(), testWords)
	if sw.MBps() <= sl.MBps() {
		t.Errorf("T3D: 1C64 %.1f <= 64C1 %.1f MB/s", sw.MBps(), sl.MBps())
	}
}

func TestParagonStridedLoadsBeatStridedStores(t *testing.T) {
	// The Paragon's pipelined loads favor strided loads (paper Fig. 4).
	m := machine.Paragon()
	sw, _ := Copy(m.NewNode(0), pattern.Contig(), pattern.Strided(64), testWords)
	sl, _ := Copy(m.NewNode(0), pattern.Strided(64), pattern.Contig(), testWords)
	if sl.MBps() <= sw.MBps() {
		t.Errorf("Paragon: 64C1 %.1f <= 1C64 %.1f MB/s", sl.MBps(), sw.MBps())
	}
}

func TestCopyIndexedIncludesIndexOverhead(t *testing.T) {
	// Indexed copies must be slower than strided ones at the same
	// irregularity because reading the index array costs time that does
	// not count as payload.
	m := machine.T3D()
	idx, _ := Copy(m.NewNode(0), pattern.Indexed(), pattern.Contig(), testWords)
	if idx.PayloadBytes != testWords*8 {
		t.Errorf("payload = %d, want %d (index loads must not count)", idx.PayloadBytes, testWords*8)
	}
}

func TestLoadSendInjectionCap(t *testing.T) {
	// A machine with an absurdly fast memory is still capped by the NI.
	m := machine.T3D()
	m.NI.PortStoreNs = 0.001
	m.NI.InjectMBps = 10
	res, err := LoadSend(m.NewNode(0), pattern.Contig(), testWords)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MBps(); got > 10.01 {
		t.Errorf("LoadSend rate %.2f exceeds injection cap 10", got)
	}
}

func TestLoadSendPatterns(t *testing.T) {
	m := machine.T3D()
	c, _ := LoadSend(m.NewNode(0), pattern.Contig(), testWords)
	s, _ := LoadSend(m.NewNode(0), pattern.Strided(64), testWords)
	w, _ := LoadSend(m.NewNode(0), pattern.Indexed(), testWords)
	if !(c.MBps() > s.MBps() && s.MBps() > w.MBps()) {
		t.Errorf("T3D send rates not ordered: 1S0=%.1f 64S0=%.1f wS0=%.1f",
			c.MBps(), s.MBps(), w.MBps())
	}
}

func TestFetchSendRequiresEngine(t *testing.T) {
	if _, err := FetchSend(machine.T3D().NewNode(0), pattern.Contig(), 16); err == nil {
		t.Error("T3D has no fetch engine; FetchSend should fail")
	}
	if _, err := FetchSend(machine.Paragon().NewNode(0), pattern.Strided(4), 16); err == nil {
		t.Error("Paragon DMA is contiguous-only; strided FetchSend should fail")
	}
	res, err := FetchSend(machine.Paragon().NewNode(0), pattern.Contig(), testWords)
	if err != nil {
		t.Fatal(err)
	}
	if res.MBps() <= 0 || res.EngineNs <= 0 {
		t.Errorf("FetchSend result implausible: %+v", res)
	}
}

func TestFetchSendBeatsLoadSendOnParagon(t *testing.T) {
	// 1F0 = 160 vs 1S0 = 52 in the paper.
	m := machine.Paragon()
	f, _ := FetchSend(m.NewNode(0), pattern.Contig(), testWords)
	s, _ := LoadSend(m.NewNode(0), pattern.Contig(), testWords)
	if f.MBps() <= s.MBps() {
		t.Errorf("Paragon: 1F0 %.1f <= 1S0 %.1f", f.MBps(), s.MBps())
	}
}

func TestRecvStoreAndDeposit(t *testing.T) {
	m := machine.Paragon()
	r, err := RecvStore(m.NewNode(0), pattern.Strided(64), testWords)
	if err != nil {
		t.Fatal(err)
	}
	if r.MBps() <= 0 {
		t.Error("RecvStore rate must be positive")
	}
	if _, err := RecvDeposit(m.NewNode(0), pattern.Strided(64), testWords); err == nil {
		t.Error("Paragon DMA deposit cannot scatter strided")
	}
	d, err := RecvDeposit(machine.T3D().NewNode(0), pattern.Indexed(), testWords)
	if err != nil {
		t.Fatal(err)
	}
	if d.EngineNs <= 0 || d.CPUNs != 0 {
		t.Errorf("T3D deposit should run fully in the background: %+v", d)
	}
}

func TestRecvDepositEjectCap(t *testing.T) {
	m := machine.T3D()
	res, err := RecvDeposit(m.NewNode(0), pattern.Contig(), testWords)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MBps(); got > m.NI.EjectMBps+0.5 {
		t.Errorf("deposit rate %.1f exceeds ejection cap %.1f", got, m.NI.EjectMBps)
	}
}

func TestParagonEngineNeedsKicking(t *testing.T) {
	// Paragon DMA setup and page kicks consume processor time.
	m := machine.Paragon()
	res, err := FetchSend(m.NewNode(0), pattern.Contig(), testWords)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUNs <= m.Fetch.SetupNs {
		t.Errorf("CPU time %.0f should include setup %.0f plus page kicks", res.CPUNs, m.Fetch.SetupNs)
	}
}

func TestRecvStoreRejectsPortPattern(t *testing.T) {
	if _, err := RecvStore(machine.Paragon().NewNode(0), pattern.Fixed(), 16); err == nil {
		t.Error("RecvStore of a port pattern should fail")
	}
	if _, err := LoadSend(machine.T3D().NewNode(0), pattern.Fixed(), 16); err == nil {
		t.Error("LoadSend of a port pattern should fail")
	}
}

func TestResultMBps(t *testing.T) {
	r := Result{PayloadBytes: 1000, ElapsedNs: 1000}
	if r.MBps() != 1000 {
		t.Errorf("MBps = %v", r.MBps())
	}
}

// referenceInterleave is the zip the deleted slice path used to build:
// payload words alternate read, write, each preceded by its own side's
// overhead loads. RunStream must schedule identically.
func referenceInterleave(reads, writes []pattern.Access) []pattern.Access {
	out := make([]pattern.Access, 0, len(reads)+len(writes))
	i, j := 0, 0
	for i < len(reads) || j < len(writes) {
		for i < len(reads) && reads[i].Overhead {
			out = append(out, reads[i])
			i++
		}
		if i < len(reads) {
			out = append(out, reads[i])
			i++
		}
		for j < len(writes) && writes[j].Overhead {
			out = append(out, writes[j])
			j++
		}
		if j < len(writes) {
			out = append(out, writes[j])
			j++
		}
	}
	return out
}

func TestCopyMatchesSlicePath(t *testing.T) {
	// The streaming copy must be bit-identical to interleaving
	// materialized access slices and running them through memsim.Run.
	specs := []pattern.Spec{
		pattern.Contig(), pattern.Strided(64), pattern.StridedBlock(64, 2), pattern.Indexed(),
	}
	for _, m := range machine.Profiles() {
		for _, read := range specs {
			for _, write := range specs {
				words := 1 << 10
				rs, ws := new(pattern.Stream), new(pattern.Stream)
				streams(rs, ws, KindCopy, read, write, words)
				ref := m.NewNode(0).Mem.Run(referenceInterleave(rs.Accesses(false), ws.Accesses(true)))
				got := m.NewNode(0).Mem.RunStream(rs, ws.ForWrites(), memsim.InterleaveWordwise)
				// The slice path never fast-forwards; the provenance flag
				// is outside the exactness contract (see memsim.Result).
				got.FastForwarded = false
				if got != ref {
					t.Errorf("%s %vC%v: RunStream %+v != Run %+v", m.Name, read, write, got, ref)
				}
			}
		}
	}
}

// TestFastForwardDifferentialMachines runs the experiment suite's
// transfer shapes (tab1/tab2/tab3 patterns and the fig4 stride sweep) on
// the real machine profiles with fast-forward on vs. off and requires
// bit-identical results — the whole-machine form of the exactness
// convention (DESIGN.md §6).
func TestFastForwardDifferentialMachines(t *testing.T) {
	words := 1 << 14
	run := func(m *machine.Machine, f func(n *machine.Node) (Result, error)) Result {
		n := m.NewNode(0)
		res, err := f(n)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, mk := range []func() *machine.Machine{machine.T3D, machine.Paragon} {
		on := mk()
		off := mk()
		off.Mem.FastForward = memsim.FastForwardOff
		name := on.Name

		specs := []pattern.Spec{
			pattern.Contig(), pattern.Strided(64), pattern.StridedBlock(64, 2), pattern.Indexed(),
		}
		for _, r := range specs {
			for _, w := range specs {
				fn := func(n *machine.Node) (Result, error) { return Copy(n, r, w, words) }
				if a, b := run(on, fn), run(off, fn); a != b {
					t.Errorf("%s %vC%v: ff on %+v != off %+v", name, r, w, a, b)
				}
			}
		}
		for _, s := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
			fn := func(n *machine.Node) (Result, error) { return Copy(n, pattern.Strided(s), pattern.Contig(), words) }
			if a, b := run(on, fn), run(off, fn); a != b {
				t.Errorf("%s %dC1: ff on %+v != off %+v", name, s, a, b)
			}
			fn = func(n *machine.Node) (Result, error) { return Copy(n, pattern.Contig(), pattern.Strided(s), words) }
			if a, b := run(on, fn), run(off, fn); a != b {
				t.Errorf("%s 1C%d: ff on %+v != off %+v", name, s, a, b)
			}
		}
		for _, r := range specs {
			fn := func(n *machine.Node) (Result, error) { return LoadSend(n, r, words) }
			if a, b := run(on, fn), run(off, fn); a != b {
				t.Errorf("%s %vS0: ff on %+v != off %+v", name, r, a, b)
			}
			fn = func(n *machine.Node) (Result, error) { return RecvStore(n, r, words) }
			if a, b := run(on, fn), run(off, fn); a != b {
				t.Errorf("%s 0R%v: ff on %+v != off %+v", name, r, a, b)
			}
		}
	}
}

func TestBlockStridedCopyBetweenPlainAndContig(t *testing.T) {
	// Block-strided (2-word runs) sits between single-word strided and
	// contiguous on both machines — the §2.2 "blocks of data words"
	// class behaves as the paper expects.
	for _, m := range machine.Profiles() {
		contig, err := Copy(m.NewNode(0), pattern.Contig(), pattern.Contig(), testWords)
		if err != nil {
			t.Fatal(err)
		}
		blocked, err := Copy(m.NewNode(0), pattern.Contig(), pattern.StridedBlock(64, 2), testWords)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Copy(m.NewNode(0), pattern.Contig(), pattern.Strided(64), testWords)
		if err != nil {
			t.Fatal(err)
		}
		if !(contig.MBps() > blocked.MBps() && blocked.MBps() > plain.MBps()) {
			t.Errorf("%s: ordering broken: contig %.1f, 64x2 %.1f, 64 %.1f",
				m.Name, contig.MBps(), blocked.MBps(), plain.MBps())
		}
	}
}

func TestLoadSendBlockStrided(t *testing.T) {
	m := machine.Paragon()
	plain, err := LoadSend(m.NewNode(0), pattern.Strided(64), testWords)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := LoadSend(m.NewNode(0), pattern.StridedBlock(64, 2), testWords)
	if err != nil {
		t.Fatal(err)
	}
	if blocked.MBps() <= plain.MBps() {
		t.Errorf("Paragon 64x2S0 %.1f <= 64S0 %.1f (quad loads should pay off)",
			blocked.MBps(), plain.MBps())
	}
}

func TestRecvDepositBlockStrided(t *testing.T) {
	// The T3D annex writes block runs with fewer full RAS/CAS cycles.
	m := machine.T3D()
	plain, err := RecvDeposit(m.NewNode(0), pattern.Strided(64), testWords)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := RecvDeposit(m.NewNode(0), pattern.StridedBlock(64, 2), testWords)
	if err != nil {
		t.Fatal(err)
	}
	if blocked.MBps() < plain.MBps() {
		t.Errorf("T3D 0D64x2 %.1f < 0D64 %.1f", blocked.MBps(), plain.MBps())
	}
}

// TestWarmIndexedRunAllocatesNothing: both stream headers live on the
// memory and an indexed side's permutation comes back from indexBufs,
// so once warm, a run of every transfer kind with indexed sides (and a
// change of word count within keepIndexWords) allocates nothing.
func TestWarmIndexedRunAllocatesNothing(t *testing.T) {
	w := pattern.Indexed()
	for _, m := range machine.Profiles() {
		mem, err := memsim.Acquire(m.Mem)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			kind Kind
			x, y pattern.Spec
		}{
			{KindCopy, w, w}, {KindCopy, w, pattern.Contig()}, {KindLoadSend, w, pattern.Spec{}},
			{KindRecvStore, pattern.Spec{}, w}, {KindFetchSend, w, pattern.Spec{}}, {KindRecvDeposit, pattern.Spec{}, w},
		} {
			if admit(m, tc.kind, tc.x, tc.y) != nil {
				continue
			}
			words := 2048
			run := func() {
				if _, err := Run(m, mem, tc.kind, tc.x, tc.y, words); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(5, func() { words ^= 2048 ^ 2047; run() }); allocs != 0 {
				t.Errorf("%s %v %v/%v: a warm run allocates %.0f times, want 0", m.Name, tc.kind, tc.x, tc.y, allocs)
			}
		}
		mem.Release()
	}
}
