package trace

import (
	"testing"

	"ctcomm/internal/pattern"
)

func TestRecordCounts(t *testing.T) {
	tr := Record(pattern.NewStream(pattern.Contig(), 0, 16), false)
	if tr.Len() != 16 {
		t.Fatalf("len = %d, want 16", tr.Len())
	}
	idx := pattern.Permutation(16, 1)
	tri := Record(pattern.NewStream(pattern.Indexed(), 0, 16).WithIndex(idx), true)
	// 16 payload + 8 index-overhead loads.
	if tri.Len() != 24 {
		t.Fatalf("indexed len = %d, want 24", tri.Len())
	}
}

func TestAnalyzeContiguous(t *testing.T) {
	tr := Record(pattern.NewStream(pattern.Contig(), 0, 256), false)
	s, err := Analyze(tr, 32, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if s.Accesses != 256 || s.Reads != 256 || s.Writes != 0 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.UniqueWords != 256 {
		t.Errorf("unique words = %d, want 256", s.UniqueWords)
	}
	if s.UniqueLines != 64 { // 256 words x 8 B / 32 B
		t.Errorf("unique lines = %d, want 64", s.UniqueLines)
	}
	if s.UniquePages != 1 {
		t.Errorf("unique pages = %d, want 1", s.UniquePages)
	}
	// No temporal reuse: every word touched once (the paper's claim for
	// communication streams).
	if s.TemporalReuse != 0 {
		t.Errorf("temporal reuse = %v, want 0", s.TemporalReuse)
	}
	// High spatial line reuse: 3 of every 4 accesses share a line.
	if s.SpatialLineReuse < 0.74 || s.SpatialLineReuse > 0.76 {
		t.Errorf("line reuse = %v, want ~0.75", s.SpatialLineReuse)
	}
	if s.PageLocality != 1 {
		t.Errorf("page locality = %v, want 1", s.PageLocality)
	}
	if s.DominantStride != 1 || s.DominantStrideShare != 1 {
		t.Errorf("dominant stride = %d (%.2f), want 1 (1.00)", s.DominantStride, s.DominantStrideShare)
	}
}

func TestAnalyzeStrided(t *testing.T) {
	tr := Record(pattern.NewStream(pattern.Strided(64), 0, 128), true)
	s, err := Analyze(tr, 32, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if s.Writes != 128 {
		t.Errorf("writes = %d", s.Writes)
	}
	if s.DominantStride != 64 {
		t.Errorf("dominant stride = %d, want 64", s.DominantStride)
	}
	// Stride 64 words = 512 B: 4 accesses per 2 KB page -> 3/4 stay.
	if s.PageLocality < 0.70 || s.PageLocality > 0.80 {
		t.Errorf("page locality = %v, want ~0.75", s.PageLocality)
	}
	if s.SpatialLineReuse != 0 {
		t.Errorf("strided single words must not share lines: %v", s.SpatialLineReuse)
	}
}

func TestAnalyzeIndexedHasNoDominantStride(t *testing.T) {
	idx := pattern.Permutation(1024, 3)
	tr := Record(pattern.NewStream(pattern.Indexed(), 0, 1024).WithIndex(idx), false)
	s, err := Analyze(tr, 32, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if s.DominantStrideShare > 0.1 {
		t.Errorf("random permutation should have no dominant stride, got share %.2f", s.DominantStrideShare)
	}
	if s.Overheads != 512 {
		t.Errorf("overheads = %d, want 512", s.Overheads)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	tr := Record(pattern.NewStream(pattern.Contig(), 0, 4), false)
	if _, err := Analyze(tr, 24, 2048); err == nil {
		t.Error("bad line size should fail")
	}
	if _, err := Analyze(tr, 32, 16); err == nil {
		t.Error("page < line should fail")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	s, err := Analyze(&Trace{}, 32, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if s.Accesses != 0 || s.TemporalReuse != 0 {
		t.Errorf("empty stats wrong: %+v", s)
	}
}

func TestTemporalReuseDetected(t *testing.T) {
	tr := &Trace{Events: []Event{{Addr: 0}, {Addr: 8}, {Addr: 0}, {Addr: 0}}}
	s, err := Analyze(tr, 32, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if s.TemporalReuse != 0.5 {
		t.Errorf("temporal reuse = %v, want 0.5", s.TemporalReuse)
	}
}

// The paper's core assumption (§3.1): communication access streams have
// essentially no temporal locality. Verify it for all pattern classes.
func TestCommunicationStreamsHaveNoTemporalLocality(t *testing.T) {
	streams := []*pattern.Stream{
		pattern.NewStream(pattern.Contig(), 0, 4096),
		pattern.NewStream(pattern.Strided(64), 0, 4096),
		pattern.NewStream(pattern.Indexed(), 0, 4096).WithIndex(pattern.Permutation(4096, 5)),
	}
	for _, st := range streams {
		tr := Record(st, false)
		s, err := Analyze(tr, 32, 2048)
		if err != nil {
			t.Fatal(err)
		}
		// Payload words are each touched exactly once; only index-array
		// overhead words repeat (they do not, either, but they share the
		// region start). Allow a tiny epsilon.
		if s.TemporalReuse > 0.01 {
			t.Errorf("%v: temporal reuse %.3f, want ~0", st.Spec(), s.TemporalReuse)
		}
	}
}
