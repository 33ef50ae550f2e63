package distrib

import (
	"testing"

	"ctcomm/internal/comm"
	"ctcomm/internal/machine"
)

func BenchmarkPlanBlockToCyclic(b *testing.B) {
	src, _ := NewBlock(1<<16, 64)
	dst, _ := NewCyclic(1<<16, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanExecute prices BenchmarkPlanBlockToCyclic's plan in both
// styles on the T3D, as a plan query does.
func BenchmarkPlanExecute(b *testing.B) {
	src, _ := NewBlock(1<<16, 64)
	dst, _ := NewCyclic(1<<16, 64)
	plan, err := Plan(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	m := machine.T3D()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, style := range []comm.Style{comm.BufferPacking, comm.Chained} {
			if _, err := Execute(m, plan, ExecuteOptions{Style: style}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	offs := make([]int64, 4096)
	for i := range offs {
		offs[i] = int64(i) * 16
	}
	for i := 0; i < b.N; i++ {
		if _, err := Classify(offs); err != nil {
			b.Fatal(err)
		}
	}
}
