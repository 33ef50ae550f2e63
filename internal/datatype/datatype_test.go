package datatype

import (
	"testing"

	"ctcomm/internal/comm"
	"ctcomm/internal/machine"
	"ctcomm/internal/pattern"
)

func TestContiguousClassifies(t *testing.T) {
	d, err := Contiguous(16)
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec() != pattern.Contig() || d.Words() != 16 {
		t.Errorf("contiguous: %v %d", d.Spec(), d.Words())
	}
	if _, err := Contiguous(0); err == nil {
		t.Error("zero count should fail")
	}
}

func TestVectorClassifies(t *testing.T) {
	// Single-word blocks -> plain strided.
	d, err := Vector(16, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec() != pattern.Strided(64) {
		t.Errorf("vector(16,1,64) = %v, want stride 64", d.Spec())
	}
	// Two-word blocks -> block-strided (the complex-number case).
	d, err = Vector(16, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec() != pattern.StridedBlock(64, 2) {
		t.Errorf("vector(16,2,64) = %v, want 64x2", d.Spec())
	}
	// blocklen == stride collapses to contiguous.
	d, err = Vector(4, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec() != pattern.Contig() {
		t.Errorf("vector(4,8,8) = %v, want contiguous", d.Spec())
	}
	if _, err := Vector(4, 8, 4); err == nil {
		t.Error("stride < blocklen should fail")
	}
}

func TestIndexedClassifies(t *testing.T) {
	d, err := Indexed([]int{1, 1, 1}, []int64{0, 10, 17})
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec() != pattern.Indexed() {
		t.Errorf("irregular displacements = %v, want indexed", d.Spec())
	}
	// Regular displacements are recognized as strided.
	d, err = Indexed([]int{1, 1, 1}, []int64{0, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec() != pattern.Strided(8) {
		t.Errorf("regular displacements = %v, want stride 8", d.Spec())
	}
	if _, err := Indexed([]int{1}, []int64{0, 1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Indexed([]int{2, 2}, []int64{0, 1}); err == nil {
		t.Error("overlap should fail")
	}
	if _, err := Indexed([]int{1}, []int64{-1}); err == nil {
		t.Error("negative displacement should fail")
	}
}

func TestSendTimesLikeTheUnderlyingPatterns(t *testing.T) {
	m := machine.T3D()
	col, _ := Vector(1024, 1, 1024)
	dst, _ := Contiguous(1024)
	viaDT, err := Send(m, comm.Chained, col, dst, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := comm.Run(m, comm.Chained, pattern.Strided(1024), pattern.Contig(),
		comm.Options{Words: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if viaDT.ElapsedNs != direct.ElapsedNs {
		t.Errorf("datatype send %.0f ns != pattern send %.0f ns", viaDT.ElapsedNs, direct.ElapsedNs)
	}
	if _, err := Send(m, comm.Chained, col, nil2(), comm.Options{}); err == nil {
		t.Error("mismatched types should fail")
	}
}

func nil2() *Datatype {
	d, _ := Contiguous(8)
	return d
}

func TestChainedBeatsPackedForVectorTypes(t *testing.T) {
	// The paper's conclusion in MPI terms: sending a strided derived
	// datatype chained beats the library's pack-and-ship path.
	m := machine.T3D()
	vec, _ := Vector(1<<12, 1, 64)
	dst, _ := Contiguous(1 << 12)
	packed, err := Send(m, comm.BufferPacking, vec, dst, comm.Options{Duplex: true})
	if err != nil {
		t.Fatal(err)
	}
	chained, err := Send(m, comm.Chained, vec, dst, comm.Options{Duplex: true})
	if err != nil {
		t.Fatal(err)
	}
	if chained.MBps() <= packed.MBps() {
		t.Errorf("chained vector send %.1f <= packed %.1f MB/s", chained.MBps(), packed.MBps())
	}
}
