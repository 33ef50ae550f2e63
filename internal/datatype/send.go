package datatype

import (
	"fmt"

	"ctcomm/internal/comm"
	"ctcomm/internal/machine"
)

// Send simulates the transfer of a derived-datatype buffer from one
// node to another on the machine, with the library strategy of the
// given style: PVM/buffer-packing packs via the datatype engine first;
// chained streams the datatype's pattern straight through the
// hardware. The returned result carries the simulated timing; the
// datatype's classified pattern decides the access costs, exactly as
// the paper's xQy patterns do.
//
// sendType describes the source layout and recvType the destination
// layout; they must cover the same number of words (MPI's type
// signature matching rule).
func Send(m *machine.Machine, style comm.Style, sendType, recvType *Datatype, opt comm.Options) (comm.Result, error) {
	if sendType.Words() != recvType.Words() {
		return comm.Result{}, fmt.Errorf("datatype: send covers %d words, recv %d (type mismatch)",
			sendType.Words(), recvType.Words())
	}
	opt.Words = sendType.Words()
	return comm.Run(m, style, sendType.Spec(), recvType.Spec(), opt)
}
