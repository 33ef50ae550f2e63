package netsim

import "testing"

func BenchmarkRoute(b *testing.B) {
	to, _ := NewTorus3D(8, 8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		to.Route(i%to.Nodes(), (i*7+13)%to.Nodes())
	}
}

func BenchmarkCongestionAllToAll(b *testing.B) {
	to, _ := NewTorus3D(4, 4, 4)
	flows := AllToAll(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CongestionOf(to, flows, 2)
	}
}

func BenchmarkBatchShift(b *testing.B) {
	to, _ := NewTorus3D(4, 4, 4)
	flows := Shift(64, 1, 64*1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := MustNewNetwork(to, testNetConfig())
		n.Batch(0, flows, DataOnly)
	}
}
