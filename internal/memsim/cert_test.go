package memsim_test

import (
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/pattern"
)

// certShape is one processor-path transfer: a load stream, a store
// stream, or both zipped word by word, as xfer's basic transfers run.
type certShape struct{ loads, stores pattern.Spec }

func (s certShape) streams(words int) (loads, stores *pattern.Stream) {
	if s.loads != (pattern.Spec{}) {
		loads = pattern.NewStream(s.loads, 0, words)
	}
	if s.stores != (pattern.Spec{}) {
		stores = pattern.NewStream(s.stores, 1<<30, words).ForWrites()
	}
	return loads, stores
}

func certShapes() []certShape {
	var out []certShape
	for _, s := range []pattern.Spec{
		pattern.Contig(), pattern.Strided(64), pattern.Strided(7),
		pattern.StridedBlock(64, 2), pattern.StridedBlock(16, 4),
	} {
		out = append(out, certShape{s, pattern.Spec{}}, certShape{pattern.Spec{}, s},
			certShape{s, pattern.Contig()}, certShape{pattern.Contig(), s}, certShape{s, s})
	}
	return out
}

// run runs the shape for words words on a fresh memory and returns the
// result and the certificate the run issued.
func (s certShape) run(cfg memsim.Config, words int, policy memsim.InterleavePolicy) (memsim.Result, memsim.Cert) {
	loads, stores := s.streams(words)
	m := memsim.MustNew(cfg)
	return m.RunStream(loads, stores, policy), m.Cert()
}

// TestCertNextIsTheNextRun pins what a certificate claims: on every
// profile and every eligible shape, advancing a certified run by one
// period gives exactly the run one period longer, which issues the same
// certificate, and the certified period is the shape's structural
// period.
func TestCertNextIsTheNextRun(t *testing.T) {
	const c = 16
	for _, m := range machine.AllProfiles() {
		certified := 0
		for _, s := range certShapes() {
			loads, stores := s.streams(8)
			p := m.Mem.StreamPeriod(loads, stores)
			if p == 0 || p > 4096 {
				continue
			}
			for _, r := range []int{0, 1 % p, p / 2, p - 1} {
				res, cert := s.run(m.Mem, c*p+r, memsim.InterleaveWordwise)
				if cert.Period == 0 {
					continue
				}
				certified++
				if cert.Period != int64(p) || !res.FastForwarded {
					t.Errorf("%s %v: certificate period %d (fast-forwarded %t), want %d",
						m.Name, s, cert.Period, res.FastForwarded, p)
				}
				next, nextCert := s.run(m.Mem, (c+1)*p+r, memsim.InterleaveWordwise)
				if got := cert.Next(res); got != next {
					t.Errorf("%s %v residue %d:\nNext %+v\nrun  %+v", m.Name, s, r, got, next)
				}
				if nextCert != cert {
					t.Errorf("%s %v residue %d: the next run issued %+v, not %+v", m.Name, s, r, nextCert, cert)
				}
			}
		}
		if certified == 0 {
			t.Errorf("%s: no run carried a certificate", m.Name)
		}
	}
}

// TestCertAbsent pins the runs that issue no certificate: engine runs,
// runs too short to jump, runs with fast-forward off, two-phase
// InterleaveLoadsFirst runs, and runs that jump while the cache holds a
// line from before the run. Each of them follows a certified run on the
// same memory, whose certificate it must not report as its own.
func TestCertAbsent(t *testing.T) {
	m := machine.T3D()
	const words = 1 << 14
	contig := pattern.NewStream(pattern.Contig(), 0, words)
	mem := memsim.MustNew(m.Mem)
	none := func(what string, run func(*memsim.Memory) memsim.Result, jumped bool) {
		t.Helper()
		mem.Reset()
		if mem.RunStream(contig, nil, memsim.InterleaveWordwise); mem.Cert().Period == 0 {
			t.Fatal("the contiguous load run must issue a certificate")
		}
		mem.Reset()
		res := run(mem)
		if c := mem.Cert(); c != (memsim.Cert{}) {
			t.Errorf("%s: certificate %+v, want none", what, c)
		}
		if res.FastForwarded != jumped {
			t.Errorf("%s: fast-forwarded %t, want %t", what, res.FastForwarded, jumped)
		}
	}
	none("engine read", func(mem *memsim.Memory) memsim.Result { return mem.EngineRead(contig) }, false)
	none("engine write", func(mem *memsim.Memory) memsim.Result { return mem.EngineWrite(contig) }, false)
	none("slice run", func(mem *memsim.Memory) memsim.Result { return mem.Run(contig.Accesses(false)) }, false)
	none("too short to jump", func(mem *memsim.Memory) memsim.Result {
		return mem.RunStream(pattern.NewStream(pattern.Contig(), 0, 64), nil, memsim.InterleaveWordwise)
	}, false)
	none("loads first", func(mem *memsim.Memory) memsim.Result {
		stores := pattern.NewStream(pattern.Contig(), 1<<30, words).ForWrites()
		return mem.RunStream(contig, stores, memsim.InterleaveLoadsFirst)
	}, true)
	// A line cached before the run, in a set the strided stream never
	// uses, survives it; the run jumps but is not certified.
	none("warm cache", func(mem *memsim.Memory) memsim.Result {
		mem.Run([]pattern.Access{{Addr: 1<<28 + int64(m.Mem.LineBytes)}})
		return mem.RunStream(pattern.NewStream(pattern.Strided(64), 0, words), nil, memsim.InterleaveWordwise)
	}, true)

	off := m.Mem
	off.FastForward = memsim.FastForwardOff
	if _, c := (certShape{pattern.Contig(), pattern.Spec{}}).run(off, words, memsim.InterleaveWordwise); c != (memsim.Cert{}) {
		t.Errorf("fast-forward off: certificate %+v, want none", c)
	}
}
