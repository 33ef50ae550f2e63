package main

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"ctcomm/internal/sweep"
)

// TestGenerateDeterministic checks that a seed fixes the inputs and
// that another seed changes them.
func TestGenerateDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := Generate(w, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(w, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different inputs", w)
		}
		c, err := Generate(w, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Reqs, c.Reqs) {
			t.Errorf("%s: seeds 7 and 8 generated the same requests", w)
		}
	}
}

// TestQueryMixShares checks query-mix's defining property: every round
// has the same number of cold keys, each new to the run, and the rest
// are hits on the popular keys filled before the clock.
func TestQueryMixShares(t *testing.T) {
	in, err := Generate("query-mix", 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	hot := map[string]bool{}
	for _, i := range in.Fill {
		hot[in.Reqs[i].Key] = true
	}
	seen := map[string]bool{}
	for n, round := range in.Rounds {
		cold := 0
		for _, idx := range round {
			r := in.Reqs[idx]
			switch {
			case r.Cold:
				cold++
				if hot[r.Key] || seen[r.Key] {
					t.Fatalf("round %d: cold key %s repeats", n, r.Key)
				}
				seen[r.Key] = true
			case !hot[r.Key]:
				t.Fatalf("round %d: %s is neither cold nor filled", n, r.Key)
			}
		}
		if cold != len(coldPattern) || len(round) != pointsPerRound {
			t.Fatalf("round %d: %d cold of %d, want %d of %d", n, cold, len(round), len(coldPattern), pointsPerRound)
		}
	}
}

// TestQueryMixAnswers checks that no generated point request fails.
func TestQueryMixAnswers(t *testing.T) {
	in, err := Generate("query-mix", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Reqs {
		r := &in.Reqs[i]
		if r.Cells > 0 {
			continue
		}
		if _, err := answer(r.Kind, r.Body); err != nil {
			t.Errorf("%s %s: %v", r.Kind, r.Body, err)
		}
	}
}

// runRound runs one round's sweeps directly and returns the rows and
// the analytic rows, failing on any repeated or failed cell.
func runRound(t *testing.T, in *Inputs, round []int32, seen map[string]bool) (rows, analytic int) {
	t.Helper()
	for _, idx := range round {
		var spec sweep.Spec
		if err := json.Unmarshal(in.Reqs[idx].Body, &spec); err != nil {
			t.Fatal(err)
		}
		cells, err := sweep.Expand(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if seen[c.Fingerprint()] {
				t.Fatalf("cell %s repeats", c.Fingerprint())
			}
			seen[c.Fingerprint()] = true
		}
		st, err := sweep.Run(context.Background(), cells, sweep.Options{}, func(sweep.Row) error { return nil })
		if err != nil || st.Failed > 0 || st.Cells != len(cells) || st.Cells != in.Reqs[idx].Cells {
			t.Fatalf("sweep %s: %+v, %v", in.Reqs[idx].Body, st, err)
		}
		rows += st.Cells
		analytic += st.Analytic
	}
	return rows, analytic
}

// TestSweepShares checks the sweep workloads' defining properties: no
// cell repeats, sweep-law's rows are nearly all answered by the laws,
// and sweep-engine's by none.
func TestSweepShares(t *testing.T) {
	for _, tc := range []struct {
		workload string
		min, max float64
	}{
		{"sweep-law", 0.9, 1},
		{"sweep-engine", 0, 0},
	} {
		in, err := Generate(tc.workload, 11, 2)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		rows, analytic := 0, 0
		for _, round := range in.Rounds {
			r, a := runRound(t, in, round, seen)
			rows, analytic = rows+r, analytic+a
		}
		share := float64(analytic) / float64(rows)
		if share < tc.min || share > tc.max {
			t.Errorf("%s: analytic share %.3f (%d of %d rows), want [%.1f, %.1f]", tc.workload, share, analytic, rows, tc.min, tc.max)
		}
	}
}
