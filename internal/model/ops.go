package model

import (
	"fmt"

	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
)

// Caps summarizes the hardware capabilities that decide how the
// communication operation xQy can be composed on a machine (paper §5.1).
type Caps struct {
	// FetchContig/FetchAny: a background fetch engine exists for
	// contiguous reads (Paragon DMA) or for any pattern.
	FetchContig bool
	FetchAny    bool
	// DepositContig/DepositAny: a background deposit engine exists for
	// contiguous writes only (Paragon DMA) or for any pattern (T3D annex).
	DepositContig bool
	DepositAny    bool
	// RecvStore: a processor is available to perform receive-stores (on
	// the Paragon the co-processor acts as a software deposit engine).
	RecvStore bool
	// OverlapUnpack: the unpacking copy of buffer-packing transfers can
	// overlap the network stage (Paragon with a dedicated communication
	// co-processor, §5.1.3 second formula). CapsOf leaves this off —
	// the paper's published estimates use the sequential composition —
	// so it is an explicit opt-in for ablation studies.
	OverlapUnpack bool
}

// CapsOf derives the capability view from a machine profile.
func CapsOf(m *machine.Machine) Caps {
	return Caps{
		FetchContig:   m.Fetch.Present,
		FetchAny:      m.Fetch.Present && !m.Fetch.ContigOnly,
		DepositContig: m.Deposit.Present && m.Deposit.Contig,
		DepositAny:    m.Deposit.Present && m.Deposit.Strided && m.Deposit.Indexed,
		RecvStore:     m.CoProcessor,
		OverlapUnpack: false,
	}
}

// sendStage returns the best send transfer for a contiguous block:
// a fetch engine if present (it runs in the background), else the
// processor's load-send.
func (c Caps) sendStage() Expr {
	if c.FetchContig {
		return Basic{F(pattern.Contig())}
	}
	return Basic{S(pattern.Contig())}
}

// recvStage returns the best receive transfer for a contiguous block.
func (c Caps) recvStage() Expr {
	if c.DepositContig || c.DepositAny {
		return Basic{D(pattern.Contig())}
	}
	return Basic{R(pattern.Contig())}
}

// BufferPacking composes the buffer-packing (PVM-style) implementation
// of xQy (paper §3.4, §5.1.1, §5.1.3):
//
//	xQy = xC1 ∘ ( send ‖ Nd ‖ recv ) ∘ 1Cy
//
// The gather and scatter copies are always present — "message passing
// libraries like PVM force the programmer to copy the data elements in
// all cases to comply with the standard API" (§3.4). With OverlapUnpack
// the final copy runs in parallel with the network stage instead.
func BufferPacking(c Caps, x, y pattern.Spec) Expr {
	net := NewPar(c.sendStage(), Net{netsim.DataOnly}, c.recvStage())
	gather := Basic{C(x, pattern.Contig())}
	scatter := Basic{C(pattern.Contig(), y)}
	if c.OverlapUnpack {
		return NewSeq(gather, NewPar(net, scatter))
	}
	return NewSeq(gather, net, scatter)
}

// Chained composes the chained implementation xQ'y, which eliminates
// the local copies by reading the data in its home pattern, sending
// address-data pairs, and depositing directly at the destination
// (paper §5.1.2, §5.1.4):
//
//	1Q'1 = 1S0 ‖ Nd   ‖ recv(1)
//	xQ'y = xS0 ‖ Nadp ‖ deposit/recv(y)
//
// It returns an error when the machine has no engine able to scatter the
// destination pattern in the background.
func Chained(c Caps, x, y pattern.Spec) (Expr, error) {
	contig := x.Kind() == pattern.KindContig && y.Kind() == pattern.KindContig
	mode := netsim.AddrData
	if contig {
		mode = netsim.DataOnly
	}
	var recv Expr
	switch {
	case c.DepositAny:
		recv = Basic{D(y)}
	case c.DepositContig && y.Kind() == pattern.KindContig && contig:
		recv = Basic{D(y)}
	case c.RecvStore:
		recv = Basic{R(y)}
	default:
		return nil, fmt.Errorf("model: no engine can deposit pattern %s in the background", y)
	}
	return NewPar(Basic{S(x)}, Net{mode}, recv), nil
}
