package ctcomm_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestTrajectoryFilesAreJSON decodes every checked-in benchmark
// trajectory (BENCH_*.json): each must be a valid JSON array of
// entries, every entry naming its benchmark and commit.
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
			Name   string `json:"name"`
			Commit string `json:"commit"`
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
		}
	}
}
