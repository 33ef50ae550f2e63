package trace

import (
	"testing"

	"ctcomm/internal/pattern"
)

func BenchmarkAnalyze(b *testing.B) {
	tr := Record(pattern.NewStream(pattern.Strided(64), 0, 1<<14), false)
	b.SetBytes(int64(tr.Len()) * 8)
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(tr, 32, 2048); err != nil {
			b.Fatal(err)
		}
	}
}
