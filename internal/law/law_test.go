package law

import (
	"reflect"
	"testing"
)

// affine is a toy family over integer results: fit at 2 and 3
// periods, verify at 4, far probe at 9.
var affine = Family[int64]{
	C1:      2,
	Verify:  []int64{4},
	Far:     9,
	Pair:    func(r1, r2 int64) (ok, far bool) { return true, true },
	Predict: func(r1, r2, n int64) int64 { return r1 + n*(r2-r1) },
	Equal:   func(pred, probe int64) bool { return pred == probe },
}

// line returns a probe of 5 + 3·words that records every word count it
// is asked for and answers bad instead at the word count skew.
func line(probed *[]int64, skew, bad int64) func(int64) (int64, bool) {
	return func(words int64) (int64, bool) {
		*probed = append(*probed, words)
		if words == skew {
			return bad, true
		}
		return 5 + 3*words, true
	}
}

func TestFitAffine(t *testing.T) {
	var probed []int64
	l := affine.Fit(10, 3, line(&probed, -1, 0))
	if l == nil {
		t.Fatal("an affine probe sequence must fit")
	}
	if want := []int64{23, 33, 43, 93}; !reflect.DeepEqual(probed, want) {
		t.Errorf("probed %v, want %v", probed, want)
	}
	if got := l.At(1003); got != 5+3*1003 {
		t.Errorf("At(1003) = %d, want %d", got, 5+3*1003)
	}
}

// A sequence affine on the fit and near probes but not at the far probe
// is rejected — unless the family waives the far probe for the pair.
func TestFitRejectsFarMismatch(t *testing.T) {
	var probed []int64
	if affine.Fit(10, 3, line(&probed, 93, 5+3*93+1)) != nil {
		t.Error("a far-probe mismatch must reject the fit")
	}
	waived := affine
	waived.Pair = func(r1, r2 int64) (ok, far bool) { return true, false }
	if waived.Fit(10, 3, line(&probed, 93, 5+3*93+1)) == nil {
		t.Error("with the far probe waived the near probes alone must admit the fit")
	}
	if affine.Fit(10, 3, line(&probed, 43, 0)) != nil {
		t.Error("a near-probe mismatch must reject the fit")
	}
	if affine.Fit(10, 10, line(&probed, -1, 0)) != nil || affine.Fit(10, -1, line(&probed, -1, 0)) != nil {
		t.Error("a residue outside [0, period) must not fit")
	}
}

func TestCoverageBoundaries(t *testing.T) {
	var probed []int64
	l := affine.Fit(10, 3, line(&probed, -1, 0))
	for _, c := range []struct {
		words int64
		want  bool
	}{
		{23, true},  // exactly C1 periods past the residue
		{13, false}, // one period short of the first fit probe
		{24, false}, // wrong residue class
		{-7, false},
	} {
		if got := l.Covers(c.words); got != c.want {
			t.Errorf("Covers(%d) = %t, want %t", c.words, got, c.want)
		}
	}
	unit := affine.Fit(1, 0, line(&probed, -1, 0))
	if !unit.Covers(MaxWords) || unit.Covers(MaxWords+1) {
		t.Errorf("Covers(MaxWords) = %t, Covers(MaxWords+1) = %t; want true, false",
			unit.Covers(MaxWords), unit.Covers(MaxWords+1))
	}
	if !affine.Reaches(10, MaxWords) || affine.Reaches(1, MaxWords+1) || affine.Reaches(10, 19) {
		t.Error("Reaches must admit MaxWords and refuse MaxWords+1 and counts below the first fit probe")
	}
}

// TestFitCounts: a registered family counts every fit it probes for,
// by outcome; an out-of-range residue probes nothing and counts
// nothing; an unregistered family counts nothing.
func TestFitCounts(t *testing.T) {
	f := Register("test-affine", affine)
	count := func() FitCount {
		for _, c := range FitCounts() {
			if c.Family == "test-affine" {
				return c
			}
		}
		t.Fatal("registered family missing from FitCounts")
		return FitCount{}
	}
	if c := count(); c.Fitted != 0 || c.Rejected != 0 {
		t.Fatalf("fresh family counts %+v, want zeros", c)
	}
	var probed []int64
	f.Fit(10, 3, line(&probed, -1, 0))      // fits
	f.Fit(10, 3, line(&probed, 93, 0))      // far-probe mismatch
	f.Fit(10, 10, line(&probed, -1, 0))     // residue out of range
	affine.Fit(10, 3, line(&probed, -1, 0)) // unregistered
	if c := count(); c.Fitted != 1 || c.Rejected != 1 {
		t.Errorf("counts %+v, want 1 fitted and 1 rejected", c)
	}
}

func TestLCM(t *testing.T) {
	for _, c := range [][3]int64{{0, 0, 0}, {0, 512, 512}, {1024, 0, 1024}, {512, 1024, 1024}, {4096, 3072, 12288}, {7, 5, 35}} {
		if got := LCM(c[0], c[1]); got != c[2] {
			t.Errorf("LCM(%d, %d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}
