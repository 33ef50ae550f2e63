// Package collective plans collective communication operations —
// all-to-all personalized exchange, broadcast, cyclic array shift, and
// reduce — as phase schedules of the repo's copy-transfer primitives.
// Every planner produces an aapc.Schedule (the shared phase-schedule
// substrate), so congestion checking and event-level simulation are
// the same machinery the AAPC experiments use.
//
// Three planner strategies are implemented per collective:
//
//   - pairwise: the naive direct schedule — one message per
//     source/destination pair, no staging, minimal volume, maximal
//     phase count.
//   - doubling: recursive doubling / binomial tree — log2(n) phases
//     for power-of-two node counts, trading larger aggregated
//     messages (and staging buffers) for far fewer synchronized
//     phases.
//   - hyper-systolic: Galli's generalized hyper-systolic layout —
//     nodes arranged as a K x (n/K) grid with K near sqrt(n); intra-
//     group phases followed by inter-group phases give O(sqrt(n))
//     phase counts at the cost of replica storage, which the planner
//     surfaces as ReplicaBlocks.
//
// The comparator in internal/query evaluates every strategy on a
// machine and reports per-strategy makespan, congestion, and memory
// overhead.
package collective

import (
	"errors"
	"fmt"

	"ctcomm/internal/aapc"
	"ctcomm/internal/machine"
	"ctcomm/internal/once"
)

// ErrBadSpec marks malformed collective specifications (unknown
// operation or strategy names, impossible node counts, zero word
// counts). internal/query maps it onto ErrBadRequest so every
// frontend answers HTTP 400 / exit code 2, never a panic.
var ErrBadSpec = errors.New("collective: bad spec")

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadSpec}, args...)...)
}

// Op names a collective operation.
type Op string

const (
	AllToAll  Op = "all-to-all"
	Broadcast Op = "broadcast"
	Shift     Op = "shift"
	Reduce    Op = "reduce"
)

// ParseOp resolves an operation name (case-insensitive; "alltoall"
// and "a2a" are accepted aliases for "all-to-all").
func ParseOp(s string) (Op, error) {
	switch lower(s) {
	case "all-to-all", "alltoall", "a2a":
		return AllToAll, nil
	case "broadcast", "bcast":
		return Broadcast, nil
	case "shift":
		return Shift, nil
	case "reduce":
		return Reduce, nil
	}
	return "", badf("unknown collective %q (valid: all-to-all, broadcast, shift, reduce)", s)
}

// Strategy names a planner strategy.
type Strategy string

const (
	Pairwise      Strategy = "pairwise"
	Doubling      Strategy = "doubling"
	HyperSystolic Strategy = "hyper-systolic"
)

// Strategies lists the planner strategies in canonical order — the
// order the comparator evaluates and breaks makespan ties in.
func Strategies() []Strategy { return []Strategy{Pairwise, Doubling, HyperSystolic} }

// ParseStrategy resolves a strategy name (case-insensitive;
// "hypersystolic" is an accepted alias for "hyper-systolic").
func ParseStrategy(s string) (Strategy, error) {
	switch lower(s) {
	case "pairwise":
		return Pairwise, nil
	case "doubling":
		return Doubling, nil
	case "hyper-systolic", "hypersystolic":
		return HyperSystolic, nil
	}
	return "", badf("unknown strategy %q (valid: pairwise, doubling, hyper-systolic)", s)
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// MaxNodes bounds plan size; schedules are O(nodes^2) pairs.
const MaxNodes = 4096

// Plan is a planned collective: a phase schedule plus the bookkeeping
// the comparator reports.
type Plan struct {
	Op       Op
	Strategy Strategy
	Nodes    int
	// Offset is the canonicalized shift distance (1..Nodes-1); zero
	// for the other operations.
	Offset   int
	Schedule *aapc.Schedule
	// ReplicaBlocks is the worst-case extra staging/replica storage
	// any node needs beyond its own payload, in blocks — the storage
	// side of the hyper-systolic storage/communication trade-off.
	ReplicaBlocks int64

	// costs caches the plan's words-invariant costs per machine
	// (machineCosts), so one computation per (plan, machine) serves
	// every block size the plan is evaluated at.
	costs once.Map[*machine.Machine, planCosts]
}

// New plans op with strategy st over nodes participants. offset is
// the shift distance (ignored unless op is Shift). Root-based
// collectives (broadcast, reduce) use node 0 as the root.
func New(op Op, st Strategy, nodes, offset int) (*Plan, error) {
	if nodes < 2 {
		return nil, badf("%s needs at least 2 nodes, got %d", op, nodes)
	}
	if nodes > MaxNodes {
		return nil, badf("%s over %d nodes exceeds the %d-node plan limit", op, nodes, MaxNodes)
	}
	p := &Plan{Op: op, Strategy: st, Nodes: nodes}
	if op == Shift {
		offset = ((offset % nodes) + nodes) % nodes
		if offset == 0 {
			return nil, badf("shift offset must be non-zero modulo %d nodes", nodes)
		}
		p.Offset = offset
	}
	var (
		s   *aapc.Schedule
		rep int64
		err error
	)
	switch op {
	case AllToAll:
		s, rep, err = planAllToAll(st, nodes)
	case Broadcast:
		s, rep, err = planBroadcast(st, nodes)
	case Shift:
		s, rep, err = planShift(st, nodes, p.Offset)
	case Reduce:
		s, rep, err = planReduce(st, nodes)
	default:
		return nil, badf("unknown collective %q (valid: all-to-all, broadcast, shift, reduce)", string(op))
	}
	if err != nil {
		return nil, err
	}
	p.Schedule = s
	p.ReplicaBlocks = rep
	return p, nil
}

func needPow2(st Strategy, op Op, n int) error {
	if n&(n-1) != 0 {
		return badf("%s strategy for %s needs a power-of-two node count, got %d", st, op, n)
	}
	return nil
}

// hyperFactor arranges n nodes as a K x a grid with K the largest
// divisor of n not exceeding sqrt(n) and a = n/K. Prime node counts
// have no non-trivial factorization and are rejected.
func hyperFactor(n int) (K, a int, err error) {
	for k := 1; k*k <= n; k++ {
		if n%k == 0 {
			K = k
		}
	}
	if K < 2 {
		return 0, 0, badf("hyper-systolic strategy needs a composite node count, got prime %d", n)
	}
	return K, n / K, nil
}

func planAllToAll(st Strategy, n int) (*aapc.Schedule, int64, error) {
	switch st {
	case Pairwise:
		// The classic cyclic-shift AAPC: n-1 direct phases, one block
		// per message, no staging.
		s, err := aapc.Shift(n)
		if err != nil {
			return nil, 0, badf("%v", err)
		}
		return s, 0, nil
	case Doubling:
		// Hypercube standard exchange: in phase j node i exchanges with
		// i XOR 2^j the n/2 blocks whose destinations differ from i in
		// bit j. log2(n) phases, n/2 blocks per message, and an n/2
		// block staging buffer for in-flight relayed data.
		if err := needPow2(st, AllToAll, n); err != nil {
			return nil, 0, err
		}
		s := &aapc.Schedule{Nodes: n}
		for j := 1; j < n; j <<= 1 {
			phase := make([]aapc.Pair, 0, n)
			for i := 0; i < n; i++ {
				phase = append(phase, aapc.Pair{Src: i, Dst: i ^ j})
			}
			s.Phases = append(s.Phases, phase)
			s.Blocks = append(s.Blocks, int64(n/2))
		}
		return s, int64(n / 2), nil
	case HyperSystolic:
		// Galli's generalized hyper-systolic layout: nodes form a
		// K x a grid (K near sqrt(n)). Stage 1 circulates within each
		// group of K (K-1 phases of a blocks), staging every group
		// member's data at every node; stage 2 delivers K-block
		// bundles across groups (a-1 phases). ~2*sqrt(n) phases
		// instead of n-1, paid for with (K-1)*a staged replica blocks
		// per node.
		K, a, err := hyperFactor(n)
		if err != nil {
			return nil, 0, err
		}
		s := &aapc.Schedule{Nodes: n}
		for k := 1; k < K; k++ {
			phase := make([]aapc.Pair, 0, n)
			for g := 0; g < a; g++ {
				for c := 0; c < K; c++ {
					phase = append(phase, aapc.Pair{Src: g*K + c, Dst: g*K + (c+k)%K})
				}
			}
			s.Phases = append(s.Phases, phase)
			s.Blocks = append(s.Blocks, int64(a))
		}
		for j := 1; j < a; j++ {
			phase := make([]aapc.Pair, 0, n)
			for g := 0; g < a; g++ {
				for c := 0; c < K; c++ {
					phase = append(phase, aapc.Pair{Src: g*K + c, Dst: ((g+j)%a)*K + c})
				}
			}
			s.Phases = append(s.Phases, phase)
			s.Blocks = append(s.Blocks, int64(K))
		}
		return s, int64((K - 1) * a), nil
	}
	return nil, 0, badf("unknown strategy %q (valid: pairwise, doubling, hyper-systolic)", string(st))
}

func planBroadcast(st Strategy, n int) (*aapc.Schedule, int64, error) {
	switch st {
	case Pairwise:
		// Root sends to every other node in turn: n-1 serial phases.
		s := &aapc.Schedule{Nodes: n}
		for k := 1; k < n; k++ {
			s.Phases = append(s.Phases, []aapc.Pair{{Src: 0, Dst: k}})
		}
		return s, 0, nil
	case Doubling:
		// Binomial tree: in phase j every node that already holds the
		// payload forwards it 2^j positions ahead — log2(n) phases.
		if err := needPow2(st, Broadcast, n); err != nil {
			return nil, 0, err
		}
		s := &aapc.Schedule{Nodes: n}
		for j := 1; j < n; j <<= 1 {
			phase := make([]aapc.Pair, 0, j)
			for i := 0; i < j; i++ {
				phase = append(phase, aapc.Pair{Src: i, Dst: i + j})
			}
			s.Phases = append(s.Phases, phase)
		}
		return s, 0, nil
	case HyperSystolic:
		// Stage 1 relays the payload along the group-leader chain
		// (a-1 phases); stage 2 fans out within all groups at once
		// (K-1 phases, the systolic rows working in parallel). The
		// a-1 leader copies staged before any non-leader sees data
		// are the replica cost.
		K, a, err := hyperFactor(n)
		if err != nil {
			return nil, 0, err
		}
		s := &aapc.Schedule{Nodes: n}
		for j := 1; j < a; j++ {
			s.Phases = append(s.Phases, []aapc.Pair{{Src: (j - 1) * K, Dst: j * K}})
		}
		for k := 1; k < K; k++ {
			phase := make([]aapc.Pair, 0, a)
			for g := 0; g < a; g++ {
				phase = append(phase, aapc.Pair{Src: g * K, Dst: g*K + k})
			}
			s.Phases = append(s.Phases, phase)
		}
		return s, int64(a - 1), nil
	}
	return nil, 0, badf("unknown strategy %q (valid: pairwise, doubling, hyper-systolic)", string(st))
}

func planShift(st Strategy, n, offset int) (*aapc.Schedule, int64, error) {
	switch st {
	case Pairwise:
		// One direct phase: i -> (i+offset) mod n.
		s := &aapc.Schedule{Nodes: n}
		phase := make([]aapc.Pair, 0, n)
		for i := 0; i < n; i++ {
			phase = append(phase, aapc.Pair{Src: i, Dst: (i + offset) % n})
		}
		s.Phases = append(s.Phases, phase)
		return s, 0, nil
	case Doubling:
		// Binary decomposition: one cyclic-shift phase per set bit of
		// the offset; blocks are staged between phases.
		if err := needPow2(st, Shift, n); err != nil {
			return nil, 0, err
		}
		s := &aapc.Schedule{Nodes: n}
		for j := 1; j < n; j <<= 1 {
			if offset&j == 0 {
				continue
			}
			phase := make([]aapc.Pair, 0, n)
			for i := 0; i < n; i++ {
				phase = append(phase, aapc.Pair{Src: i, Dst: (i + j) % n})
			}
			s.Phases = append(s.Phases, phase)
		}
		return s, int64(len(s.Phases) - 1), nil
	case HyperSystolic:
		// Route through the K x a grid: offset = q*K + r becomes q
		// stride-K phases plus r stride-1 phases, bounding any shift
		// distance by about a + K phases.
		K, _, err := hyperFactor(n)
		if err != nil {
			return nil, 0, err
		}
		s := &aapc.Schedule{Nodes: n}
		addStride := func(stride, times int) {
			for t := 0; t < times; t++ {
				phase := make([]aapc.Pair, 0, n)
				for i := 0; i < n; i++ {
					phase = append(phase, aapc.Pair{Src: i, Dst: (i + stride) % n})
				}
				s.Phases = append(s.Phases, phase)
			}
		}
		addStride(K, offset/K)
		addStride(1, offset%K)
		return s, int64(len(s.Phases) - 1), nil
	}
	return nil, 0, badf("unknown strategy %q (valid: pairwise, doubling, hyper-systolic)", string(st))
}

func planReduce(st Strategy, n int) (*aapc.Schedule, int64, error) {
	switch st {
	case Pairwise:
		// Every node sends its contribution straight to the root,
		// which folds them in one at a time: n-1 serial phases.
		s := &aapc.Schedule{Nodes: n}
		for k := 1; k < n; k++ {
			s.Phases = append(s.Phases, []aapc.Pair{{Src: k, Dst: 0}})
		}
		return s, 0, nil
	case Doubling:
		// Reversed binomial tree: halve the holder set each phase,
		// each receiver folding one partial — log2(n) phases, one
		// staged accumulator block per interior node.
		if err := needPow2(st, Reduce, n); err != nil {
			return nil, 0, err
		}
		s := &aapc.Schedule{Nodes: n}
		for j := n / 2; j >= 1; j /= 2 {
			phase := make([]aapc.Pair, 0, j)
			for i := 0; i < j; i++ {
				phase = append(phase, aapc.Pair{Src: i + j, Dst: i})
			}
			s.Phases = append(s.Phases, phase)
		}
		return s, 1, nil
	case HyperSystolic:
		// Reverse of the hyper-systolic broadcast: groups fold into
		// their leaders in parallel (K-1 phases), then the leader
		// chain folds toward the root (a-1 phases).
		K, a, err := hyperFactor(n)
		if err != nil {
			return nil, 0, err
		}
		s := &aapc.Schedule{Nodes: n}
		for k := 1; k < K; k++ {
			phase := make([]aapc.Pair, 0, a)
			for g := 0; g < a; g++ {
				phase = append(phase, aapc.Pair{Src: g*K + k, Dst: g * K})
			}
			s.Phases = append(s.Phases, phase)
		}
		for j := a - 1; j >= 1; j-- {
			s.Phases = append(s.Phases, []aapc.Pair{{Src: j * K, Dst: (j - 1) * K}})
		}
		return s, 1, nil
	}
	return nil, 0, badf("unknown strategy %q (valid: pairwise, doubling, hyper-systolic)", string(st))
}
