// Package model implements the copy-transfer model of Stricker/Gross
// (ISCA 1995, §3): a small algebra that describes inter-node
// communication operations as compositions of basic transfers and
// estimates their throughput from per-transfer rate tables.
//
// Basic transfers are written in the paper's notation with the read
// pattern as a left subscript and the write pattern as a right
// subscript, e.g. 1C64 (contiguous loads, stride-64 stores) or wS0
// (indexed loads into the network port). Network transfers are Nd
// (data only) and Nadp (address-data pairs). Compositions use ∘ for
// sequential steps sharing a resource and ‖ for parallel steps on
// disjoint resources; the three evaluation rules are:
//
//	| X ‖ Y |  =  min(|X|, |Y|)
//	| X ∘ Y |  =  1 / (1/|X| + 1/|Y|)
//	resource constraints cap the result (e.g. 2·|Q| ≤ bus bandwidth)
package model

import (
	"fmt"

	"ctcomm/internal/pattern"
)

// Op identifies a basic intra-node transfer kind (paper §3.2).
type Op byte

const (
	// OpCopy is xCy, the local memory-to-memory copy.
	OpCopy Op = 'C'
	// OpLoadSend is xS0, processor loads stored to the network port.
	OpLoadSend Op = 'S'
	// OpFetchSend is xF0, a background fetch engine feeding the network.
	OpFetchSend Op = 'F'
	// OpRecvStore is 0Ry, the processor storing incoming words.
	OpRecvStore Op = 'R'
	// OpRecvDeposit is 0Dy, the deposit engine storing incoming words.
	OpRecvDeposit Op = 'D'
)

// Valid reports whether the op is one of the five basic transfers.
func (o Op) Valid() bool {
	switch o {
	case OpCopy, OpLoadSend, OpFetchSend, OpRecvStore, OpRecvDeposit:
		return true
	}
	return false
}

// Term is one basic intra-node transfer with its access patterns.
type Term struct {
	Op    Op
	Read  pattern.Spec
	Write pattern.Spec
}

// NewTerm builds a term and validates the pattern shapes required by the
// paper's definitions: sends write to the port (write pattern 0),
// receives read from the port (read pattern 0), and copies touch memory
// on both sides.
func NewTerm(op Op, read, write pattern.Spec) (Term, error) {
	t := Term{Op: op, Read: read, Write: write}
	if !op.Valid() {
		return t, fmt.Errorf("model: invalid op %q", string(op))
	}
	switch op {
	case OpCopy:
		if !read.IsMemory() || !write.IsMemory() {
			return t, fmt.Errorf("model: %s requires memory patterns on both sides", t)
		}
	case OpLoadSend, OpFetchSend:
		if !read.IsMemory() || write.IsMemory() {
			return t, fmt.Errorf("model: %s must read memory and write the port", t)
		}
	case OpRecvStore, OpRecvDeposit:
		if read.IsMemory() || !write.IsMemory() {
			return t, fmt.Errorf("model: %s must read the port and write memory", t)
		}
	}
	return t, nil
}

// MustTerm is NewTerm that panics on error, for package-level tables.
func MustTerm(op Op, read, write pattern.Spec) Term {
	t, err := NewTerm(op, read, write)
	if err != nil {
		panic(err)
	}
	return t
}

// String renders the term in the paper's notation, e.g. "64C1".
func (t Term) String() string {
	return fmt.Sprintf("%s%c%s", t.Read, t.Op, t.Write)
}

// Key returns the canonical rate-table key (same as String).
func (t Term) Key() string { return t.String() }

// Convenience constructors for the common terms.

// C returns the local copy term xCy.
func C(read, write pattern.Spec) Term { return MustTerm(OpCopy, read, write) }

// S returns the load-send term xS0.
func S(read pattern.Spec) Term { return MustTerm(OpLoadSend, read, pattern.Fixed()) }

// F returns the fetch-send term xF0.
func F(read pattern.Spec) Term { return MustTerm(OpFetchSend, read, pattern.Fixed()) }

// R returns the receive-store term 0Ry.
func R(write pattern.Spec) Term { return MustTerm(OpRecvStore, pattern.Fixed(), write) }

// D returns the receive-deposit term 0Dy.
func D(write pattern.Spec) Term { return MustTerm(OpRecvDeposit, pattern.Fixed(), write) }
