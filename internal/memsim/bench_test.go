package memsim

import (
	"testing"

	"ctcomm/internal/pattern"
)

// benchRunStream measures the streaming hot path: a full copy-style
// transfer (loads zipped with stores) per iteration. With fast-forward
// enabled the steady state is extrapolated; either way the loop must not
// allocate (run with -benchmem; the allocs/op column is the assertion
// TestRunStreamAllocFree makes exact).
func benchRunStream(b *testing.B, spec pattern.Spec, ff FFMode) {
	const words = 1 << 17
	cfg := testConfig()
	cfg.FastForward = ff
	m := MustNew(cfg)
	loads := pattern.NewStream(spec, 0, words)
	stores := pattern.NewStream(spec, 1<<30, words).ForWrites()
	b.SetBytes(words * 8)
	b.ResetTimer()
	var last Result
	for i := 0; i < b.N; i++ {
		last = m.RunStream(loads, stores, InterleaveWordwise)
	}
	b.ReportMetric(last.MBps(), "simMB/s")
}

func BenchmarkRunStream(b *testing.B) {
	for _, spec := range []pattern.Spec{pattern.Contig(), pattern.Strided(64), pattern.StridedBlock(64, 2)} {
		b.Run(spec.String(), func(b *testing.B) { benchRunStream(b, spec, FastForwardAuto) })
	}
}

func BenchmarkRunStreamNoFastForward(b *testing.B) {
	for _, spec := range []pattern.Spec{pattern.Contig(), pattern.Strided(64), pattern.StridedBlock(64, 2)} {
		b.Run(spec.String(), func(b *testing.B) { benchRunStream(b, spec, FastForwardOff) })
	}
}

func BenchmarkEngineWrite(b *testing.B) {
	const words = 1 << 14
	for _, spec := range []pattern.Spec{pattern.Contig(), pattern.Strided(64)} {
		b.Run(spec.String(), func(b *testing.B) {
			st := pattern.NewStream(spec, 0, words)
			b.SetBytes(words * 8)
			var last Result
			for i := 0; i < b.N; i++ {
				m := MustNew(testConfig())
				last = m.EngineWrite(st)
			}
			b.ReportMetric(last.MBps(), "simMB/s")
		})
	}
}
