package collective

import "testing"

// BenchmarkCollectivePlan measures planning plus validation of every
// collective x strategy at 64 nodes — the planner hot path recorded
// in the BENCH_collective.json trajectory and gated (ns/op within 2x of
// the latest entry) by the table in cmd/benchtrack.
func BenchmarkCollectivePlan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, op := range Ops() {
			for _, st := range Strategies() {
				p, err := New(op, st, 64, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
