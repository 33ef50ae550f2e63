package comm

import (
	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/pattern"
	"ctcomm/internal/xfer"
)

// Source supplies basic-transfer results to the operation assembler.
// x is the read-side pattern (xCy, xS0, xF0), y the write-side pattern
// (xCy, 0Ry, 0Dy); the unused side is the zero Spec. The bool reports
// whether the result came from an analytic word-count law rather than
// an engine simulation — provenance only, the numbers are identical by
// the bit-identity contract.
type Source interface {
	Transfer(kind xfer.Kind, x, y pattern.Spec, words int) (xfer.Result, bool, error)
}

// EngineSource returns the classic point-query Source: every transfer
// is simulated in full on a memory in a fresh node's starting state.
func EngineSource(m *machine.Machine) Source { return engineSource{m} }

type engineSource struct{ m *machine.Machine }

func (e engineSource) Transfer(kind xfer.Kind, x, y pattern.Spec, words int) (xfer.Result, bool, error) {
	res, err := runEngine(e.m, kind, x, y, words)
	return res, false, err
}

// runEngine simulates one basic transfer on a pooled memory in the
// state a fresh node's starts in (memsim.Acquire) — the reference
// evaluation every other source must reproduce bit for bit.
func runEngine(m *machine.Machine, kind xfer.Kind, x, y pattern.Spec, words int) (xfer.Result, error) {
	mem, err := memsim.Acquire(m.Mem)
	if err != nil {
		return xfer.Result{}, err
	}
	defer mem.Release()
	return xfer.Run(m, mem, kind, x, y, words)
}
