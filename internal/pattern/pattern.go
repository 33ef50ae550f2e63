// Package pattern describes the memory access patterns of the copy-transfer
// model and generates the corresponding address streams.
//
// The paper (Stricker/Gross, ISCA 1995, Section 3.2) distinguishes four
// symbolic patterns that annotate every basic transfer:
//
//	0   a fixed location (head or tail of a network FIFO)
//	1   contiguous word accesses
//	n   strided accesses with constant stride n >= 2 (in words)
//	ω   indexed (irregular) accesses driven by an index array
//
// A Spec is the symbolic form used by the model; a Stream is the concrete
// sequence of byte addresses used by the simulators.
package pattern

import (
	"fmt"
	"strconv"
	"strings"
)

// WordBytes is the basic unit of transfer: one 64-bit word (paper §2.2).
const WordBytes = 8

// Kind enumerates the symbolic access-pattern classes of the model.
type Kind int

const (
	// KindFixed is the pattern "0": a constant address, e.g. a FIFO port.
	KindFixed Kind = iota
	// KindContig is the pattern "1": consecutive words.
	KindContig
	// KindStrided is the pattern "n": constant stride of n >= 2 words.
	KindStrided
	// KindIndexed is the pattern "ω": arbitrary word sequence from an
	// index array.
	KindIndexed
)

// String returns the one-letter class name used in diagnostics.
func (k Kind) String() string {
	switch k {
	case KindFixed:
		return "fixed"
	case KindContig:
		return "contiguous"
	case KindStrided:
		return "strided"
	case KindIndexed:
		return "indexed"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec is a symbolic access pattern: one of 0, 1, n (stride), or ω.
// Strided patterns may move small dense blocks instead of single words
// ("blocks of data words (e.g., 2 words for complex numbers, 6 words
// for 3D tensors), with a constant stride", paper §2.2).
// The zero value is the fixed pattern "0".
type Spec struct {
	kind   Kind
	stride int // only meaningful for KindStrided; in words
	block  int // words per dense run for KindStrided; 0 and 1 mean single words
}

// Fixed returns the pattern "0" (a constant port address).
func Fixed() Spec { return Spec{kind: KindFixed} }

// Contig returns the pattern "1" (contiguous words).
func Contig() Spec { return Spec{kind: KindContig} }

// Strided returns the pattern "s": constant stride of s words.
// Strided(1) is normalized to Contig(); s must be >= 1.
func Strided(s int) Spec {
	if s < 1 {
		panic(fmt.Sprintf("pattern: invalid stride %d", s))
	}
	if s == 1 {
		return Contig()
	}
	return Spec{kind: KindStrided, stride: s}
}

// StridedBlock returns the pattern "sxb": dense runs of b words with a
// constant stride of s words between run starts (b <= s). A block of 1
// is a plain strided pattern; stride == block collapses to contiguous.
func StridedBlock(s, b int) Spec {
	if s < 1 || b < 1 || b > s {
		panic(fmt.Sprintf("pattern: invalid block-strided %dx%d", s, b))
	}
	if s == b {
		return Contig()
	}
	if b == 1 {
		return Strided(s)
	}
	return Spec{kind: KindStrided, stride: s, block: b}
}

// Indexed returns the pattern "ω" (index-array driven accesses).
func Indexed() Spec { return Spec{kind: KindIndexed} }

// Kind reports the symbolic class of the pattern.
func (s Spec) Kind() Kind { return s.kind }

// Block returns the dense run length in words for strided patterns
// (1 for plain strided and contiguous), 0 otherwise.
func (s Spec) Block() int {
	switch s.kind {
	case KindContig:
		return 1
	case KindStrided:
		if s.block < 1 {
			return 1
		}
		return s.block
	default:
		return 0
	}
}

// Stride returns the stride in words: 1 for contiguous, the constant
// stride for strided patterns, and 0 for fixed and indexed patterns.
func (s Spec) Stride() int {
	switch s.kind {
	case KindContig:
		return 1
	case KindStrided:
		return s.stride
	default:
		return 0
	}
}

// IsMemory reports whether the pattern touches the memory system (all
// patterns except the fixed port pattern "0").
func (s Spec) IsMemory() bool { return s.kind != KindFixed }

// String renders the pattern in the paper's subscript notation:
// "0", "1", "64", or "w" (for ω).
func (s Spec) String() string {
	switch s.kind {
	case KindFixed:
		return "0"
	case KindContig:
		return "1"
	case KindStrided:
		if s.block > 1 {
			return strconv.Itoa(s.stride) + "x" + strconv.Itoa(s.block)
		}
		return strconv.Itoa(s.stride)
	case KindIndexed:
		return "w"
	default:
		return "?"
	}
}

// ParseSpec parses the subscript notation produced by String. It accepts
// "0", "1", a decimal stride >= 2, and "w", "W" or "ω" for indexed.
func ParseSpec(text string) (Spec, error) {
	switch text {
	case "":
		return Spec{}, fmt.Errorf("pattern: empty spec")
	case "0":
		return Fixed(), nil
	case "1":
		return Contig(), nil
	case "w", "W", "ω", "omega":
		return Indexed(), nil
	}
	if i := strings.IndexByte(text, 'x'); i > 0 {
		stride, err1 := strconv.Atoi(text[:i])
		block, err2 := strconv.Atoi(text[i+1:])
		if err1 != nil || err2 != nil || stride < 2 || block < 1 || block > stride {
			return Spec{}, fmt.Errorf("pattern: invalid block-strided spec %q", text)
		}
		return StridedBlock(stride, block), nil
	}
	n, err := strconv.Atoi(text)
	if err != nil || n < 2 {
		return Spec{}, fmt.Errorf("pattern: invalid spec %q", text)
	}
	return Strided(n), nil
}
