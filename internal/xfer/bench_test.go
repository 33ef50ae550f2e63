package xfer

import (
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/pattern"
)

// BenchmarkFitLaw times one law fit of the basic transfers that the
// short price sweeps of the repository benchmark's sweep-law workload
// fit on the T3D and the Paragon, at residue 1. The certified shapes
// fit from one certified probe; the uncertified ones run every probe
// (the engine paths have no fast-forward, and the Paragon's contiguous
// loads leave completed pipelined loads that keep its strict snapshot
// recurrence from holding).
func BenchmarkFitLaw(b *testing.B) {
	for _, c := range []struct {
		name      string
		m         *machine.Machine
		kind      Kind
		x, y      pattern.Spec
		certified bool
	}{
		{"t3d/64C1/certified", machine.T3D(), KindCopy, pattern.Strided(64), pattern.Contig(), true},
		{"t3d/1S0/certified", machine.T3D(), KindLoadSend, pattern.Contig(), pattern.Spec{}, true},
		{"t3d/0D64/uncertified", machine.T3D(), KindRecvDeposit, pattern.Spec{}, pattern.Strided(64), false},
		{"paragon/0R1/certified", machine.Paragon(), KindRecvStore, pattern.Spec{}, pattern.Contig(), true},
		{"paragon/64S0/certified", machine.Paragon(), KindLoadSend, pattern.Strided(64), pattern.Spec{}, true},
		{"paragon/1C1/uncertified", machine.Paragon(), KindCopy, pattern.Contig(), pattern.Contig(), false},
		{"paragon/1S0/uncertified", machine.Paragon(), KindLoadSend, pattern.Contig(), pattern.Spec{}, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := PeriodOf(c.m, c.kind, c.x, c.y)
			before := certifiedFits()
			if FitLawPeriod(c.m, c.kind, c.x, c.y, p, 1) == nil || (certifiedFits() > before) != c.certified {
				b.Fatalf("the law must fit, certified %t", c.certified)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FitLawPeriod(c.m, c.kind, c.x, c.y, p, 1)
			}
		})
	}
}
