package pattern

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestSpecString(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Fixed(), "0"},
		{Contig(), "1"},
		{Strided(2), "2"},
		{Strided(64), "64"},
		{Strided(1024), "1024"},
		{Indexed(), "w"},
	}
	for _, c := range cases {
		if got := c.spec.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, s := range []Spec{Fixed(), Contig(), Strided(2), Strided(7), Strided(64), Indexed()} {
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("round trip %v -> %q -> %v", s, s.String(), got)
		}
	}
}

func TestParseSpecAliases(t *testing.T) {
	for _, text := range []string{"w", "W", "ω", "omega"} {
		got, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if got != Indexed() {
			t.Errorf("ParseSpec(%q) = %v, want indexed", text, got)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, text := range []string{"", "-1", "x", "1.5", "0x10"} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q): expected error", text)
		}
	}
}

func TestStridedNormalizesOne(t *testing.T) {
	if Strided(1) != Contig() {
		t.Error("Strided(1) should normalize to Contig()")
	}
}

func TestStridedPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Strided(0) should panic")
		}
	}()
	Strided(0)
}

func TestSpecStride(t *testing.T) {
	if got := Contig().Stride(); got != 1 {
		t.Errorf("Contig().Stride() = %d, want 1", got)
	}
	if got := Strided(16).Stride(); got != 16 {
		t.Errorf("Strided(16).Stride() = %d, want 16", got)
	}
	if got := Fixed().Stride(); got != 0 {
		t.Errorf("Fixed().Stride() = %d, want 0", got)
	}
	if got := Indexed().Stride(); got != 0 {
		t.Errorf("Indexed().Stride() = %d, want 0", got)
	}
}

func TestIsMemory(t *testing.T) {
	if Fixed().IsMemory() {
		t.Error("Fixed() should not be a memory pattern")
	}
	for _, s := range []Spec{Contig(), Strided(4), Indexed()} {
		if !s.IsMemory() {
			t.Errorf("%v should be a memory pattern", s)
		}
	}
}

func TestContigStreamAddresses(t *testing.T) {
	st := NewStream(Contig(), 1000, 4)
	want := []int64{1000, 1008, 1016, 1024}
	got := st.Addresses()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("addr[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestStridedStreamAddresses(t *testing.T) {
	st := NewStream(Strided(64), 0, 3)
	want := []int64{0, 64 * 8, 128 * 8}
	for i, a := range st.Addresses() {
		if a != want[i] {
			t.Errorf("addr[%d] = %d, want %d", i, a, want[i])
		}
	}
}

func TestFixedStreamRepeatsPort(t *testing.T) {
	st := NewStream(Fixed(), 42, 5)
	for i, a := range st.Addresses() {
		if a != 42 {
			t.Errorf("addr[%d] = %d, want 42", i, a)
		}
	}
}

func TestIndexedStream(t *testing.T) {
	idx := []int64{3, 0, 2, 1}
	st := NewStream(Indexed(), 100, 4).WithIndex(idx)
	want := []int64{100 + 24, 100, 100 + 16, 100 + 8}
	for i, a := range st.Addresses() {
		if a != want[i] {
			t.Errorf("addr[%d] = %d, want %d", i, a, want[i])
		}
	}
}

func TestIndexedStreamWithoutIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for indexed stream without index")
		}
	}()
	NewStream(Indexed(), 0, 1).Next()
}

func TestStreamResetAndExhaustion(t *testing.T) {
	st := NewStream(Contig(), 0, 2)
	if _, ok := st.Next(); !ok {
		t.Fatal("first Next should succeed")
	}
	if _, ok := st.Next(); !ok {
		t.Fatal("second Next should succeed")
	}
	if _, ok := st.Next(); ok {
		t.Fatal("third Next should fail")
	}
	st.Reset()
	if _, ok := st.Next(); !ok {
		t.Fatal("Next after Reset should succeed")
	}
}

func TestFootprint(t *testing.T) {
	if fp := NewStream(Contig(), 0, 10).Footprint(); fp != 80 {
		t.Errorf("contig footprint = %d, want 80", fp)
	}
	if fp := NewStream(Strided(4), 0, 10).Footprint(); fp != 9*4*8+8 {
		t.Errorf("strided footprint = %d, want %d", fp, 9*4*8+8)
	}
	if fp := NewStream(Fixed(), 0, 10).Footprint(); fp != 0 {
		t.Errorf("fixed footprint = %d, want 0", fp)
	}
	if fp := NewStream(Contig(), 0, 0).Footprint(); fp != 0 {
		t.Errorf("empty footprint = %d, want 0", fp)
	}
}

func TestAccessesMarksWrites(t *testing.T) {
	st := NewStream(Contig(), 0, 3)
	for _, a := range st.Accesses(true) {
		if !a.Write {
			t.Error("expected write access")
		}
	}
	for _, a := range st.Accesses(false) {
		if a.Write {
			t.Error("expected read access")
		}
	}
}

func TestIndexedAccessesIncludeOverheadLoads(t *testing.T) {
	n := 8
	idx := Permutation(n, 1)
	st := NewStream(Indexed(), 0, n).WithIndex(idx)
	acc := st.Accesses(false)
	payload, overhead := 0, 0
	for _, a := range acc {
		if a.Overhead {
			if a.Write {
				t.Error("overhead access must be a load")
			}
			overhead++
		} else {
			payload++
		}
	}
	if payload != n {
		t.Errorf("payload accesses = %d, want %d", payload, n)
	}
	// 32-bit indices packed two per word: n/2 overhead loads.
	if overhead != n/2 {
		t.Errorf("overhead accesses = %d, want %d", overhead, n/2)
	}
}

func TestNonIndexedAccessesHaveNoOverhead(t *testing.T) {
	for _, spec := range []Spec{Contig(), Strided(16)} {
		for _, a := range NewStream(spec, 0, 16).Accesses(false) {
			if a.Overhead {
				t.Errorf("%v stream should have no overhead accesses", spec)
			}
		}
	}
}

func TestPermutationProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%512 + 1
		return IsPermutation(Permutation(n, seed))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermutationDeterministic(t *testing.T) {
	a := Permutation(100, 7)
	b := Permutation(100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Permutation not deterministic")
		}
	}
	c := Permutation(100, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical permutations")
	}
}

func TestIsPermutationRejects(t *testing.T) {
	if IsPermutation([]int64{0, 0}) {
		t.Error("duplicate should not be a permutation")
	}
	if IsPermutation([]int64{0, 2}) {
		t.Error("out-of-range should not be a permutation")
	}
	if !IsPermutation([]int64{}) {
		t.Error("empty slice is trivially a permutation")
	}
}

func TestStridedBlockAddresses(t *testing.T) {
	// Runs of 2 words every 8 words: 0,1, 8,9, 16,17 (x8 bytes).
	st := NewStream(StridedBlock(8, 2), 0, 6)
	want := []int64{0, 8, 64, 72, 128, 136}
	for i, a := range st.Addresses() {
		if a != want[i] {
			t.Errorf("addr[%d] = %d, want %d", i, a, want[i])
		}
	}
}

func TestStridedBlockNormalization(t *testing.T) {
	if StridedBlock(8, 1) != Strided(8) {
		t.Error("block 1 should normalize to plain strided")
	}
	if StridedBlock(4, 4) != Contig() {
		t.Error("stride == block should normalize to contiguous")
	}
}

func TestStridedBlockPanics(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {4, 0}, {2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StridedBlock(%d,%d) should panic", c[0], c[1])
				}
			}()
			StridedBlock(c[0], c[1])
		}()
	}
}

func TestStridedBlockStringRoundTrip(t *testing.T) {
	s := StridedBlock(64, 2)
	if s.String() != "64x2" {
		t.Fatalf("String = %q", s.String())
	}
	got, err := ParseSpec("64x2")
	if err != nil || got != s {
		t.Fatalf("ParseSpec(64x2) = %v, %v", got, err)
	}
	if _, err := ParseSpec("2x4"); err == nil {
		t.Error("block > stride should fail to parse")
	}
	if _, err := ParseSpec("x2"); err == nil {
		t.Error("missing stride should fail")
	}
}

func TestStridedBlockAccessors(t *testing.T) {
	s := StridedBlock(64, 2)
	if s.Stride() != 64 || s.Block() != 2 {
		t.Errorf("stride/block = %d/%d", s.Stride(), s.Block())
	}
	if Contig().Block() != 1 || Strided(8).Block() != 1 {
		t.Error("plain patterns should report block 1")
	}
	if Indexed().Block() != 0 || Fixed().Block() != 0 {
		t.Error("non-strided patterns should report block 0")
	}
}

func TestAppendPermutation(t *testing.T) {
	prefix := []int64{7, 8}
	for _, n := range []int{0, 1, 2, 100} {
		got := AppendPermutation(append([]int64(nil), prefix...), n, 42)
		if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], Permutation(n, 42)) {
			t.Errorf("n=%d: AppendPermutation = %v", n, got)
		}
	}
}
