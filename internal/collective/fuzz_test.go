package collective

import (
	"errors"
	"testing"
)

// FuzzCollectiveSchedule drives the planners with arbitrary
// (op, strategy, nodes, offset) tuples: every spec either fails with
// ErrBadSpec (never a panic) or yields a schedule that passes the full
// validity contract — at most one send and one receive per node per
// phase, in-range pairs, no self exchange, and influence-propagation
// coverage of the collective (for direct all-to-all schedules, exact
// once-per-ordered-pair coverage).
func FuzzCollectiveSchedule(f *testing.F) {
	f.Add(uint8(0), uint8(0), 8, 1)
	f.Add(uint8(1), uint8(1), 64, 0)
	f.Add(uint8(2), uint8(2), 36, 7)
	f.Add(uint8(3), uint8(2), 100, -5)
	f.Add(uint8(0), uint8(2), 13, 2) // prime: hyper-systolic must reject
	f.Add(uint8(3), uint8(1), 24, 0) // non-pow2: doubling must reject
	f.Fuzz(func(t *testing.T, opSel, stSel uint8, nodes, offset int) {
		op := allOps[int(opSel)%len(allOps)]
		st := Strategies()[int(stSel)%len(Strategies())]
		if nodes > 256 {
			nodes = nodes%255 + 2 // keep O(n^2) schedules fuzz-sized
		}
		p, err := New(op, st, nodes, offset)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("New(%s, %s, %d, %d): error %v is not ErrBadSpec", op, st, nodes, offset, err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("New(%s, %s, %d, %d) produced an invalid schedule: %v", op, st, nodes, offset, err)
		}
		if p.ReplicaBlocks < 0 {
			t.Fatalf("New(%s, %s, %d, %d): negative replica storage %d", op, st, nodes, offset, p.ReplicaBlocks)
		}
	})
}
