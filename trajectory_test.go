package ctcomm_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestTrajectoryFilesAreJSON decodes every checked-in benchmark
// trajectory (BENCH_*.json): each must be a valid JSON array of
// cmd/benchtrack entries, every entry naming its benchmark and commit,
// counting at least one sample and carrying a median for each metric.
func TestTrajectoryFilesAreJSON(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json trajectory files found")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var entries []struct {
			Name    string                        `json:"name"`
			Commit  string                        `json:"commit"`
			N       int                           `json:"n"`
			Metrics map[string]map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(data, &entries); err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if len(entries) == 0 {
			t.Errorf("%s: no entries", f)
		}
		for i, e := range entries {
			if e.Name == "" || e.Commit == "" {
				t.Errorf("%s entry %d: missing name or commit", f, i)
			}
			if e.N < 1 || len(e.Metrics) == 0 {
				t.Errorf("%s entry %d (%s): n = %d with %d metrics, want n >= 1 and a metric", f, i, e.Name, e.N, len(e.Metrics))
			}
			for m, stats := range e.Metrics {
				if _, ok := stats["median"]; !ok {
					t.Errorf("%s entry %d (%s): metric %s has no median", f, i, e.Name, m)
				}
			}
		}
	}
}
