package sweep

import (
	"encoding/json"
	"testing"
)

// TestCollectiveSweepWordsLawBitIdentical is the collective twin of
// TestSweepAnalyticBitIdentical (run in CI): a words-axis collective
// sweep through the batch path — memoized plans, cached congestion
// factors, fitted affine makespan laws — must reproduce the
// engine-per-cell path byte for byte across every machine, hierarchy
// level, collective and strategy, over word counts that mix
// law-covered, off-period-residue and below-coverage cells. Rows are
// compared as marshaled JSON, so the rendered Text fields are compared
// as bytes.
func TestCollectiveSweepWordsLawBitIdentical(t *testing.T) {
	specs := []Spec{
		// Flat machines, explicit strategies axis. Structural periods:
		// t3d 512 words, paragon 64. 100 is below t3d coverage, 2085
		// rides t3d's residue-37 law, 1024/2048 are covered residue-0.
		{
			Kind:        "collective",
			Machines:    []string{"t3d", "paragon"},
			Collectives: []string{"all-to-all", "shift", "reduce"},
			Strategies:  []string{"pairwise", "doubling", "hyper-systolic"},
			NodeCounts:  []int{16},
			Words:       []int{100, 1024, 2085, 2048},
		},
		// Hierarchical machines swept per level as compare cells (no
		// strategies axis). Periods: cluster 2048 (4096 covered, 1024
		// not), xe6 256 (both covered).
		{
			Kind:        "collective",
			Machines:    []string{"cluster", "xe6"},
			Collectives: []string{"all-to-all", "broadcast"},
			Levels:      []string{"intra-socket", "inter-socket", "inter-node"},
			Words:       []int{1024, 4096},
		},
	}
	if testing.Short() {
		specs[0].Collectives = []string{"all-to-all"}
		specs[0].Words = []int{100, 2048}
		specs[1].Levels = []string{"intra-socket", "inter-socket"}
		specs[1].Words = []int{4096}
	}
	for _, spec := range specs {
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
			t.Error("batch sweep answered no cell analytically; the words laws never engaged")
		}
		if estats.Analytic != 0 {
			t.Errorf("engine sweep reported %d analytic cells; Engine mode must not use laws", estats.Analytic)
		}
		if bstats.Cells != estats.Cells || bstats.Failed != estats.Failed {
			t.Errorf("stats differ: batch %+v, engine %+v", bstats, estats)
		}
	}
}

// collectiveBenchSpec is the words-axis grid BenchmarkCollectiveSweep
// and its engine reference share: 64-node all-to-all strategy
// comparisons with the word-count axis dominating — the shape the
// per-strategy words laws collapse from O(words) event simulation per
// cell to O(1) extrapolation.
func collectiveBenchSpec(wordValues int) Spec {
	words := make([]int, wordValues)
	for i := range words {
		words[i] = 16384 + i*2048
	}
	return Spec{
		Kind:        "collective",
		Machines:    []string{"t3d", "xe6"},
		Collectives: []string{"all-to-all"},
		Words:       words, // no node_counts/strategies: whole-machine compare cells
	}
}

// BenchmarkCollectiveSweep is the headline collective sweep benchmark
// (recorded in BENCH_collective.json and gated at 75% of the latest
// rows/sec by the table in cmd/benchtrack): 32 whole-machine
// all-to-all comparison cells across 16 word counts through the batch
// path, fresh batch per iteration so law fitting is paid inside the
// measurement. Compare rows/sec against BenchmarkCollectiveSweepEngine
// for the law speedup.
func BenchmarkCollectiveSweep(b *testing.B) {
	spec := collectiveBenchSpec(16) // 2 x 1 x 16 = 32 cells
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows += benchRows(b, spec, Options{})
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkCollectiveSweepEngine is the pre-law reference: the same
// per-cell workload, every cell an independent engine run. One
// 64-node all-to-all comparison at 16384 words costs ~10s of event
// simulation, so the reference keeps a single word count per machine
// (2 cells); rows/sec is directly comparable. Recorded for the
// trajectory, not gated.
func BenchmarkCollectiveSweepEngine(b *testing.B) {
	spec := collectiveBenchSpec(1) // 2 cells
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows += benchRows(b, spec, Options{Engine: true})
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/sec")
}
