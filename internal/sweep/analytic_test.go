package sweep

import (
	"context"
	"encoding/json"
	"testing"

	"ctcomm/internal/query"
)

// runAll executes the spec with the given options and returns the rows.
func runAll(t testing.TB, spec Spec, opt Options) ([]Row, Stats) {
	if h, ok := t.(interface{ Helper() }); ok {
		h.Helper()
	}
	var rows []Row
	stats, err := Execute(context.Background(), spec, opt, func(r Row) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return rows, stats
}

// sansFlags clears the provenance markers, which legitimately differ
// between the batch and engine paths; everything else in a row —
// response structs included, down to the rendered Text bytes — must be
// identical.
func sansFlags(r Row) Row {
	r.Cached, r.Analytic = false, false
	return r
}

// TestSweepAnalyticBitIdentical is the top-level differential gate of
// this subsystem (run in CI): the batch path — shared machines, shared
// rate tables, memoized stages, analytic word-count laws — must
// reproduce the engine-per-cell path byte for byte across a grid that
// exercises law-covered word counts, fallback word counts, law-
// ineligible (indexed) patterns, and error cells. Rows are compared as
// marshaled JSON, so the rendered Text fields are compared as bytes.
func TestSweepAnalyticBitIdentical(t *testing.T) {
	spec := Spec{
		Kind:     "price",
		Machines: []string{"t3d", "paragon", "cm5"}, // cm5: error rows must match too
		Ops:      []string{"1Q1", "64Q64", "wQ1"},
		Styles:   []string{"buffer-packing", "direct"},
		// 1024: below law coverage (engine fallback). 16384/131072:
		// law-covered on both machines. 16421: off-period residue.
		Words: []int{1024, 16384, 16384 + 37, 131072},
	}
	if testing.Short() {
		spec.Words = []int{1024, 131072}
	}
	batch, bstats := runAll(t, spec, Options{})
	engine, estats := runAll(t, spec, Options{Engine: true})

	if len(batch) != len(engine) {
		t.Fatalf("row counts differ: batch %d, engine %d", len(batch), len(engine))
	}
	for i := range batch {
		bj, err := json.Marshal(sansFlags(batch[i]))
		if err != nil {
			t.Fatal(err)
		}
		ej, err := json.Marshal(sansFlags(engine[i]))
		if err != nil {
			t.Fatal(err)
		}
		if string(bj) != string(ej) {
			t.Errorf("row %d differs:\nbatch  %s\nengine %s", i, bj, ej)
		}
	}
	if bstats.Analytic == 0 {
		t.Error("batch sweep answered no cell analytically; the laws never engaged")
	}
	if estats.Analytic != 0 {
		t.Errorf("engine sweep reported %d analytic cells; Engine mode must not use laws", estats.Analytic)
	}
	if bstats.Cells != estats.Cells || bstats.Failed != estats.Failed {
		t.Errorf("stats differ: batch %+v, engine %+v", bstats, estats)
	}
}

// TestSweepAnalyticEvalPlan extends the differential gate to the other
// two cell kinds: batch-shared rate tables (eval) and batch-shared
// machine resolution (plan) must not change a byte either.
func TestSweepAnalyticEvalPlan(t *testing.T) {
	specs := []Spec{
		{Kind: "eval", Machines: []string{"t3d", "paragon"},
			Rates: []string{"paper", "calibrated"}, Ops: []string{"1Q64"},
			Exprs: []string{"wC1 o (1S0 || Nd || 0D1)"}},
		{Kind: "plan", Machines: []string{"t3d", "paragon"},
			Ns: []int{4096}, Ps: []int{16}, Srcs: []string{"BLOCK"}, Dsts: []string{"CYCLIC"}},
	}
	for _, spec := range specs {
		batch, _ := runAll(t, spec, Options{})
		engine, _ := runAll(t, spec, Options{Engine: true})
		if len(batch) != len(engine) {
			t.Fatalf("%s: row counts differ", spec.Kind)
		}
		for i := range batch {
			bj, _ := json.Marshal(sansFlags(batch[i]))
			ej, _ := json.Marshal(sansFlags(engine[i]))
			if string(bj) != string(ej) {
				t.Errorf("%s row %d differs:\nbatch  %s\nengine %s", spec.Kind, i, bj, ej)
			}
		}
	}
}

// fuzzPatterns and fuzzStyles bound the fuzz corpus to valid axis
// values; the parsers have their own fuzz targets.
var fuzzPatterns = []string{"1", "64", "7", "64x2", "w"}
var fuzzStyles = []string{"buffer-packing", "chained", "direct", "pvm"}

// FuzzSweepAnalytic fuzzes the bit-identity contract cell by cell: any
// (machine, style, pattern pair, word count) the grammar admits must
// price identically — marshaled bytes, Text included — through a batch
// and as a point query. Run in the fuzz-smoke CI job.
func FuzzSweepAnalytic(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint32(1<<17))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(4), uint32(16384))
	f.Add(uint8(0), uint8(3), uint8(4), uint8(2), uint32(1000))
	f.Add(uint8(1), uint8(1), uint8(3), uint8(0), uint32(65573))
	f.Fuzz(func(t *testing.T, mi, si, xi, yi uint8, words uint32) {
		machines := []string{"t3d", "paragon"}
		req := query.PriceRequest{
			Machine: machines[int(mi)%len(machines)],
			Style:   fuzzStyles[int(si)%len(fuzzStyles)],
			X:       fuzzPatterns[int(xi)%len(fuzzPatterns)],
			Y:       fuzzPatterns[int(yi)%len(fuzzPatterns)],
			// Cap the axis so one engine reference run stays cheap while
			// still crossing every law boundary (coverage starts at 16
			// periods = 32768 words on the largest period).
			Words: int(words%(1<<18)) + 1,
		}.Canon()
		cell := Cell{Price: &req}

		ref, refErr := cell.Exec()
		got, _, gotErr := cell.ExecBatch(query.NewBatch())
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("%+v: err mismatch: engine %v, batch %v", req, refErr, gotErr)
		}
		if refErr != nil {
			if refErr.Error() != gotErr.Error() {
				t.Fatalf("%+v: error text differs: %q vs %q", req, refErr, gotErr)
			}
			return
		}
		rj, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(rj) != string(gj) {
			t.Fatalf("%+v:\nengine %s\nbatch  %s", req, rj, gj)
		}
	})
}

// benchSpec is the 4096-cell grid BenchmarkSweep and its engine
// reference share: the element-count axis dominates (128 word counts
// per machine/op/style), which is exactly the shape the analytic laws
// collapse from O(words) simulation to O(1) extrapolation.
func benchSpec(wordValues int) Spec {
	words := make([]int, wordValues)
	for i := range words {
		words[i] = 16384 + i*2048
	}
	return Spec{
		Kind:     "price",
		Machines: []string{"t3d", "paragon"},
		Ops:      []string{"1Q1", "1Q64", "64Q1", "64Q64"},
		Styles:   []string{"buffer-packing", "chained", "direct", "pvm"},
		Words:    words,
	}
}

// benchRows runs one full sweep and returns the row count.
func benchRows(b *testing.B, spec Spec, opt Options) int {
	n := 0
	if _, err := Execute(context.Background(), spec, opt, func(Row) error { n++; return nil }); err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkSweep is the headline sweep benchmark (recorded in
// BENCH_sweep.json and gated at 75% of the latest rows/sec by the table
// in cmd/benchtrack):
// the default-cap 4096-cell grid through the batch path, fresh batch
// per iteration so law fitting is paid inside the measurement. Compare
// rows/sec against BenchmarkSweepEngine for the analytic speedup.
func BenchmarkSweep(b *testing.B) {
	spec := benchSpec(128) // 2 x 4 x 4 x 128 = 4096 cells = DefaultMaxCells
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows += benchRows(b, spec, Options{})
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkSweepEngine is the pre-batch reference: the same per-cell
// workload distribution, every cell an independent engine run. It uses
// a 512-cell subsample of the BenchmarkSweep grid (same word-count
// range, every 8th value) so one iteration stays tractable; rows/sec
// is directly comparable.
func BenchmarkSweepEngine(b *testing.B) {
	spec := benchSpec(128)
	sub := make([]int, 0, 16)
	for i := 0; i < len(spec.Words); i += 8 {
		sub = append(sub, spec.Words[i])
	}
	spec.Words = sub // 2 x 4 x 4 x 16 = 512 cells
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows += benchRows(b, spec, Options{Engine: true})
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/sec")
}
