package xfer

import (
	"math/rand"
	"testing"

	"ctcomm/internal/law"
	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/pattern"
)

// referenceFit is the four-probe fitter that certified fitting
// replaced, kept as the differential reference: fit probes at lawC1 and
// lawC1+1 periods past the residue, bitwise verification of their
// extrapolation at lawC3 and lawC4, and at the far probe lawC5 unless
// both fit probes fast-forwarded. Every probe runs on a fresh memory.
// The production fitter always runs the far probe when it has no
// certificate; a first probe that fast-forwards is certified at the
// structural period, so only the twice-period laws below take a path
// where the two differ.
// ok reports an admitted law with fit probes r1 and r2.
func referenceFit(m *machine.Machine, kind Kind, x, y pattern.Spec, period, residue int) (r1, r2 memsim.Result, ok bool) {
	if period <= 0 || residue < 0 || residue >= period {
		return r1, r2, false
	}
	run := func(c int) memsim.Result { return memPart(memsim.MustNew(m.Mem), kind, x, y, c*period+residue) }
	r1, r2 = run(lawC1), run(lawC1+1)
	check := func(c int) bool { return memsim.PredictLinear(r1, r2, int64(c-lawC1)) == run(c) }
	ok = check(lawC3) && check(lawC4) && (r1.FastForwarded && r2.FastForwarded || check(lawC5))
	return r1, r2, ok
}

// certifiedFits returns the process-wide count of transfer laws a
// certificate admitted.
func certifiedFits() int64 {
	for _, c := range law.FitCounts() {
		if c.Family == "transfer" {
			return c.Certified
		}
	}
	return 0
}

// matchReference fits the law of one residue class mod p both ways and
// requires the same admission and, for an admitted law, the same fit
// points bit for bit (the law's extrapolation at C1 and C1+1 periods
// is its two fit probes re-derived), the same coverage and bitwise
// equal answers at each of words.
func matchReference(t *testing.T, m *machine.Machine, kind Kind, x, y pattern.Spec, p, residue int, words []int) {
	t.Helper()
	name := func() string { return m.Name + " " + kind.String() + " " + x.String() + "/" + y.String() }
	l := FitLawPeriod(m, kind, x, y, p, residue)
	r1, r2, ok := referenceFit(m, kind, x, y, p, residue)
	if (l != nil) != ok {
		t.Errorf("%s residue %d: certified fitter admits %t, reference %t", name(), residue, l != nil, ok)
		return
	}
	if l == nil {
		return
	}
	for n := int64(0); n < 2; n++ {
		c := int64(lawC1) + n
		if got, want := l.fit.At(c*int64(p)+int64(residue)).res, memsim.PredictLinear(r1, r2, n); got != want {
			t.Errorf("%s residue %d: fit point %d periods\ncertified %+v\nreference %+v", name(), residue, c, got, want)
		}
	}
	for _, w := range words {
		covered := w%p == residue && w >= lawC1*p && w <= law.MaxWords
		if kind == KindCopy && pattern.NewStream(x, srcBase, w).Footprint() > dstBase {
			covered = false
		}
		if l.Covers(w) != covered {
			t.Errorf("%s residue %d: Covers(%d) = %t, want %t", name(), residue, w, l.Covers(w), covered)
			continue
		}
		if !covered {
			continue
		}
		got, err := l.Eval(w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := replay(m, kind, x, y, memsim.PredictLinear(r1, r2, int64(w/p-lawC1)), w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s %d words:\ncertified %+v\nreference %+v", name(), w, got, want)
		}
	}
}

// TestCertifiedLawMatchesReference runs both fitters over every profile,
// every transfer shape of lawKinds and residues 0, 1, p-1 and two
// random ones, and evaluates each admitted law at random covered word
// counts. Every profile must also admit some law by its certificate, so
// that a certificate the fitter never accepts cannot pass as agreement.
// A law of twice the structural period is affine too; its fit must not
// take a certificate of the structural period for its own.
func TestCertifiedLawMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range machine.AllProfiles() {
		before := certifiedFits()
		for _, tc := range lawKinds() {
			p := PeriodOf(m, tc.kind, tc.x, tc.y)
			if p == 0 {
				continue
			}
			for _, residue := range []int{0, 1 % p, p - 1, rng.Intn(p), rng.Intn(p)} {
				var words []int
				for i := 0; i < 3; i++ {
					words = append(words, (lawC1+rng.Intn(4096))*p+residue)
				}
				matchReference(t, m, tc.kind, tc.x, tc.y, p, residue, append(words, lawC1*p+residue, (lawC1-1)*p+residue))
			}
			matchReference(t, m, tc.kind, tc.x, tc.y, 2*p, 1, []int{(2*lawC1+rng.Intn(4096))*2*p + 1})
		}
		if certifiedFits() == before {
			t.Errorf("%s: no law was admitted by its certificate", m.Name)
		}
	}
}

// FuzzCertifiedLawMatchesReference is the fuzzing form of
// TestCertifiedLawMatchesReference: any profile, shape, residue and
// covered word count.
func FuzzCertifiedLawMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint32(0), uint32(0))
	f.Add(uint8(1), uint8(7), uint32(1), uint32(100))
	f.Add(uint8(2), uint8(14), uint32(511), uint32(3000))
	f.Add(uint8(3), uint8(30), uint32(12345), uint32(1<<20))
	profiles, shapes := machine.AllProfiles(), lawKinds()
	f.Fuzz(func(t *testing.T, mi, si uint8, residue, periods uint32) {
		m, tc := profiles[int(mi)%len(profiles)], shapes[int(si)%len(shapes)]
		p := PeriodOf(m, tc.kind, tc.x, tc.y)
		if p == 0 {
			return
		}
		r := int(residue) % p
		w := int(periods)%(law.MaxWords/p-lawC1+1)*p + lawC1*p + r
		matchReference(t, m, tc.kind, tc.x, tc.y, p, r, []int{w})
	})
}
