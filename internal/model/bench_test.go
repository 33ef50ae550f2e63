package model

import (
	"testing"

	"ctcomm/internal/pattern"
)

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse("wC1 o (1S0 || Nadp || 0Dw) o wCw"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRateLookupInterpolated(b *testing.B) {
	rt := PaperT3D()
	term := C(pattern.Contig(), pattern.Strided(16))
	for i := 0; i < b.N; i++ {
		if _, err := rt.Rate(term); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateChained(b *testing.B) {
	rt := PaperT3D()
	caps := Caps{DepositAny: true}
	expr, err := Chained(caps, pattern.Indexed(), pattern.Indexed())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(expr, rt, 2); err != nil {
			b.Fatal(err)
		}
	}
}
