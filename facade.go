package ctcomm

// Extended public API: the compiler view (HPF distributions and
// redistribution plans), scheduled all-to-all communication, pull-style
// transfers, trace analysis, and barrier costs. These wrap the internal
// packages the same way the core facade in ctcomm.go does.

import (
	"context"

	"ctcomm/internal/aapc"
	"ctcomm/internal/apps"
	"ctcomm/internal/calibrate"
	"ctcomm/internal/comm"
	"ctcomm/internal/datatype"
	"ctcomm/internal/distrib"
	"ctcomm/internal/pattern"
	"ctcomm/internal/query"
	"ctcomm/internal/sweep"
	"ctcomm/internal/syncsim"
	"ctcomm/internal/trace"
)

// --- Compiler view: distributions and redistribution plans ------------

// Distribution maps a one-dimensional array onto processors (HPF BLOCK,
// CYCLIC, CYCLIC(b), or an explicit irregular owner array).
type Distribution = distrib.Distribution

// Transfer is one node-to-node movement of a redistribution plan, held
// symbolically: endpoints, word count (Words), the classified access
// patterns (Src, Dst) and each side's first local offset. SrcOffsets
// and DstOffsets regenerate the local offsets from the patterns. A
// Transfer comes only from the planners (PlanRedistribution,
// PlanRemap2D, PlanTranspose): one written as a literal carries no words, and
// PriceRedistribution rejects it.
type Transfer = distrib.Transfer

// CommReport accumulates simulated communication cost.
type CommReport = apps.CommReport

// BlockDist returns the HPF BLOCK distribution of n elements over p
// processors.
func BlockDist(n, p int) (Distribution, error) { return distrib.NewBlock(n, p) }

// CyclicDist returns the HPF CYCLIC distribution.
func CyclicDist(n, p int) (Distribution, error) { return distrib.NewCyclic(n, p) }

// BlockCyclicDist returns the HPF CYCLIC(b) distribution.
func BlockCyclicDist(n, p, b int) (Distribution, error) { return distrib.NewBlockCyclic(n, p, b) }

// PlanRedistribution computes the transfers an array redistribution
// demands, with per-side access patterns — the compiler's input to the
// communication operation xQy (paper §2.1-2.2).
func PlanRedistribution(src, dst Distribution) ([]Transfer, error) { return distrib.Plan(src, dst) }

// PriceRedistribution times a redistribution plan on the simulated
// machine with the given communication style. It rejects a transfer
// that did not come from a planner.
func PriceRedistribution(m *Machine, plan []Transfer, style Style) (CommReport, error) {
	return distrib.Execute(m, plan, distrib.ExecuteOptions{Style: style})
}

// ClassifyOffsets infers the symbolic access pattern of a local offset
// sequence (contiguous, strided, block-strided, or indexed).
func ClassifyOffsets(offsets []int64) (Pattern, error) { return distrib.Classify(offsets) }

// --- Scheduled all-to-all communication --------------------------------

// AAPCSchedule is a phase schedule for the complete exchange.
type AAPCSchedule = aapc.Schedule

// AAPCShift returns the cyclic-shift schedule for any node count.
func AAPCShift(nodes int) (*AAPCSchedule, error) { return aapc.Shift(nodes) }

// AAPCXOR returns the pairwise-exchange schedule for power-of-two node
// counts — the schedule that achieves the paper's "minimal congestion"
// for dense transposes (§4.3).
func AAPCXOR(nodes int) (*AAPCSchedule, error) { return aapc.XOR(nodes) }

// --- Pull-style transfers ----------------------------------------------

// GetOptions extends Options for pull (remote load) transfers.
type GetOptions = comm.GetOptions

// RunGet simulates the pull variant of a communication operation: the
// destination withdraws the data. Gets never beat puts — address
// information has to travel first (paper §3.5, footnote 2).
func RunGet(m *Machine, style Style, x, y Pattern, opt GetOptions) (Result, error) {
	return comm.RunGet(m, style, x, y, opt)
}

// --- Trace analysis -----------------------------------------------------

// Trace is a recorded memory access stream.
type Trace = trace.Trace

// TraceStats summarizes a trace (reuse, locality, dominant stride).
type TraceStats = trace.Stats

// RecordTrace captures the access stream of a pattern over words 64-bit
// words starting at byte address base.
func RecordTrace(spec Pattern, base int64, words int, write bool) *Trace {
	st := pattern.NewStream(spec, base, words)
	if spec.Kind() == pattern.KindIndexed {
		st.WithIndex(pattern.Permutation(words, 0x7A11))
	}
	return trace.Record(st, write)
}

// AnalyzeTrace computes trace statistics for the given cache-line and
// DRAM-page sizes. It quantifies the paper's §3.1 observation that
// communication access streams have essentially no temporal locality.
func AnalyzeTrace(t *Trace, lineBytes, pageBytes int) (TraceStats, error) {
	return trace.Analyze(t, lineBytes, pageBytes)
}

// --- Synchronization -----------------------------------------------------

// BarrierCost estimates the cheapest barrier across nodes participants
// on the machine, in nanoseconds (paper §2.1: synchronization brackets
// every compiled communication step).
func BarrierCost(m *Machine, nodes int) (float64, error) {
	c, _, err := syncsim.Best(m, nodes)
	return c, err
}

// --- Two-dimensional distributions --------------------------------------

// Dist2D maps a 2D array onto a processor grid, one HPF distribution
// per dimension.
type Dist2D = distrib.Dist2D

// NewDist2D combines row and column distributions over an R x C array.
func NewDist2D(rows, cols int, row, col Distribution) (Dist2D, error) {
	return distrib.NewDist2D(rows, cols, row, col)
}

// RowBlockDist returns the (BLOCK, *) layout of an R x C array.
func RowBlockDist(rows, cols, procs int) (Dist2D, error) {
	return distrib.RowBlock(rows, cols, procs)
}

// ColBlockDist returns the (*, BLOCK) layout.
func ColBlockDist(rows, cols, procs int) (Dist2D, error) {
	return distrib.ColBlock(rows, cols, procs)
}

// PlanRemap2D plans the redistribution between two 2D layouts.
func PlanRemap2D(src, dst Dist2D) ([]Transfer, error) { return distrib.Plan2D(src, dst) }

// PlanTranspose plans the paper's Figure 9 transpose b[i][j] = a[j][i]
// for an n x n row-block-distributed array; stridedLoads selects the
// nQ1 orientation instead of the default 1Qn (§5.2).
func PlanTranspose(n, procs int, stridedLoads bool) ([]Transfer, error) {
	return distrib.TransposePlan(n, procs, stridedLoads)
}

// --- Query interface (the serving core) ----------------------------------
//
// These are the entry points cmd/ctmodel, cmd/hpfplan, and the ctserved
// HTTP service all share. A request names machines, rate tables,
// expressions, and distributions as strings — the external query
// surface — and the response carries both structured numbers and the
// exact rendered text the CLIs print, byte for byte.

// EvalQuery evaluates a copy-transfer expression, operation, or rate
// listing by name (ctmodel / POST /v1/eval).
type EvalQuery = query.EvalRequest

// EvalAnswer is the structured + rendered result of an EvalQuery.
type EvalAnswer = query.EvalResponse

// PlanQuery plans and prices an HPF redistribution by name
// (hpfplan / POST /v1/plan).
type PlanQuery = query.PlanRequest

// PlanAnswer is the structured + rendered result of a PlanQuery.
type PlanAnswer = query.PlanResponse

// PriceQuery prices one communication operation under a named style
// (POST /v1/price).
type PriceQuery = query.PriceRequest

// PriceAnswer is the structured result of a PriceQuery.
type PriceAnswer = query.PriceResponse

// Eval answers an EvalQuery. Unset fields take the query defaults
// (machine t3d, paper rates).
func Eval(q EvalQuery) (EvalAnswer, error) { return query.Eval(q) }

// Plan answers a PlanQuery.
func Plan(q PlanQuery) (PlanAnswer, error) { return query.Plan(q) }

// Price answers a PriceQuery.
func Price(q PriceQuery) (PriceAnswer, error) { return query.Price(q) }

// CollectiveQuery plans a collective operation (all-to-all, broadcast,
// shift, reduce) as phase schedules of copy-transfer primitives and
// evaluates planner strategies on a named machine (ctmodel -collective
// / POST /v1/collective). An empty Strategy compares every strategy
// and reports the winner.
type CollectiveQuery = query.CollectiveRequest

// CollectiveAnswer is the structured + rendered result of a
// CollectiveQuery: one report per strategy (phase count, message and
// block volume, congestion, replica storage, makespan) plus the
// winner and the exact comparator text the CLI prints.
type CollectiveAnswer = query.CollectiveResponse

// Collective answers a CollectiveQuery.
func Collective(q CollectiveQuery) (CollectiveAnswer, error) { return query.Collective(q) }

// FitQuery least-squares fits machine-profile constants from measured
// (size_bytes, rate_MBps) rows, per hierarchy level, against a named
// base profile (ctmodel -fit / POST /v1/fit).
type FitQuery = query.FitRequest

// FitAnswer is the structured + rendered result of a FitQuery: the
// per-level fitted constants with their per-point error report, and the
// fitted profile as loadable machine JSON.
type FitAnswer = query.FitResponse

// MeasuredRow is one calibration measurement: a transfer size, the rate
// achieved at that size, and (for hierarchical bases) the tier the
// measurement crossed.
type MeasuredRow = calibrate.MeasuredRow

// Fit answers a FitQuery.
func Fit(q FitQuery) (FitAnswer, error) { return query.Fit(q) }

// ParseMeasuredRows parses measurement rows from JSON (an array or a
// {"rows": [...]} object) or CSV (size_bytes, rate_MBps[, level], with
// an optional header line) — the formats ctmodel -fit accepts.
func ParseMeasuredRows(data []byte) ([]MeasuredRow, error) { return calibrate.ParseRows(data) }

// ParseOperation parses an "xQy" operation name into its pattern pair.
func ParseOperation(op string) (x, y Pattern, err error) { return query.ParseOp(op) }

// ParseStyle resolves a communication-style name ("buffer-packing",
// "chained", "pvm", ...) to its Style.
func ParseStyle(name string) (Style, error) { return comm.ParseStyle(name) }

// ResolveMachine resolves a machine name ("t3d", "paragon", ...),
// accepting the alternate spellings the CLIs and the server take
// ("cray", "intel", ...). Unlike MachineByName it reports unknown
// names as an error instead of nil.
func ResolveMachine(name string) (*Machine, error) { return query.ResolveMachine(name) }

// SweepQuery is a compact grid of queries (machines x operations x
// styles x sizes) for batched evaluation (ctmodel -sweep /
// POST /v1/sweep).
type SweepQuery = sweep.Spec

// SweepRow is one per-cell sweep result: the request echo plus either
// the point-query answer or the cell's error.
type SweepRow = sweep.Row

// SweepStats summarizes an executed sweep.
type SweepStats = sweep.Stats

// Sweep expands and runs a SweepQuery, returning one row per cell in
// grid order. An invalid cell yields a row with Err set and the sweep
// continues; only a malformed spec fails as a whole. Cells evaluate
// through a shared batch context (machines resolved once, rate tables
// built once, element-count axes answered by bitwise-verified
// closed-form laws); each cell's answer — including its rendered Text
// — is byte-identical to the corresponding Eval/Price/Plan call.
func Sweep(q SweepQuery) ([]SweepRow, SweepStats, error) {
	var rows []SweepRow
	stats, err := sweep.Execute(context.Background(), q, sweep.Options{}, func(r SweepRow) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return rows, stats, nil
}

// --- MPI-style derived datatypes -----------------------------------------

// Datatype is an MPI-style derived datatype mapped onto the model's
// pattern classes (the standardized successor of the paper's gather and
// scatter descriptions).
type Datatype = datatype.Datatype

// ContiguousType returns the datatype of count consecutive words.
func ContiguousType(count int) (*Datatype, error) { return datatype.Contiguous(count) }

// VectorType returns count blocks of blocklen words every stride words
// (MPI_Type_vector).
func VectorType(count, blocklen, stride int) (*Datatype, error) {
	return datatype.Vector(count, blocklen, stride)
}

// IndexedType returns blocks at explicit displacements (MPI_Type_indexed).
func IndexedType(blocklens []int, displs []int64) (*Datatype, error) {
	return datatype.Indexed(blocklens, displs)
}

// SendType simulates transferring a derived-datatype buffer between
// nodes with the given library strategy.
func SendType(m *Machine, style Style, sendType, recvType *Datatype, opt Options) (Result, error) {
	return datatype.Send(m, style, sendType, recvType, opt)
}
