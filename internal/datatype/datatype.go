// Package datatype provides an MPI-style derived-datatype view of the
// paper's access patterns. MPI standardized the concept the paper
// works with — describing non-contiguous communication buffers so the
// library can gather and scatter them — as derived datatypes
// (MPI_Type_vector, MPI_Type_indexed, ...). This package maps those
// constructors onto the copy-transfer model's pattern classes, so the
// paper's buffer-packing-vs-chained question can be asked in modern
// terms: is a send of this datatype packed by the library or chained
// through the hardware?
package datatype

import (
	"fmt"

	"ctcomm/internal/distrib"
	"ctcomm/internal/pattern"
)

// Datatype describes the memory layout of a communication buffer in
// 64-bit word units.
type Datatype struct {
	// words is the number of payload words.
	words int
	// spec is the classified symbolic pattern.
	spec pattern.Spec
}

// Words returns the number of payload words the datatype covers.
func (d *Datatype) Words() int { return d.words }

// Spec returns the copy-transfer pattern class of the datatype:
// contiguous, (block-)strided, or indexed.
func (d *Datatype) Spec() pattern.Spec { return d.spec }

// Contiguous returns the datatype of count consecutive words
// (MPI_Type_contiguous).
func Contiguous(count int) (*Datatype, error) {
	if count < 1 {
		return nil, fmt.Errorf("datatype: count %d < 1", count)
	}
	offs := make([]int64, count)
	for i := range offs {
		offs[i] = int64(i)
	}
	return build(offs)
}

// Vector returns count blocks of blocklen words separated by stride
// words (MPI_Type_vector). blocklen <= stride.
func Vector(count, blocklen, stride int) (*Datatype, error) {
	if count < 1 || blocklen < 1 || stride < blocklen {
		return nil, fmt.Errorf("datatype: invalid vector(%d,%d,%d)", count, blocklen, stride)
	}
	offs := make([]int64, 0, count*blocklen)
	for b := 0; b < count; b++ {
		for w := 0; w < blocklen; w++ {
			offs = append(offs, int64(b*stride+w))
		}
	}
	return build(offs)
}

// Indexed returns blocks of the given lengths at the given
// displacements (MPI_Type_indexed). Blocks must not overlap.
func Indexed(blocklens []int, displs []int64) (*Datatype, error) {
	if len(blocklens) != len(displs) || len(blocklens) == 0 {
		return nil, fmt.Errorf("datatype: %d lengths for %d displacements", len(blocklens), len(displs))
	}
	seen := make(map[int64]bool)
	var offs []int64
	for i, bl := range blocklens {
		if bl < 1 {
			return nil, fmt.Errorf("datatype: block %d has length %d", i, bl)
		}
		for w := 0; w < bl; w++ {
			o := displs[i] + int64(w)
			if o < 0 {
				return nil, fmt.Errorf("datatype: negative offset %d", o)
			}
			if seen[o] {
				return nil, fmt.Errorf("datatype: overlapping offset %d", o)
			}
			seen[o] = true
			offs = append(offs, o)
		}
	}
	return build(offs)
}

// build classifies the offsets and wraps them.
func build(offs []int64) (*Datatype, error) {
	spec, err := distrib.Classify(offs)
	if err != nil {
		return nil, err
	}
	return &Datatype{words: len(offs), spec: spec}, nil
}
