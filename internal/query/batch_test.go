package query

import (
	"reflect"
	"testing"
)

// TestBatchBitIdentical is the query-level tier of the analytic sweep
// contract: every response a Batch produces — struct fields AND the
// rendered Text — must equal the batchless point query exactly. It
// crosses machines, rates, ops, styles and word counts, including the
// word counts the session answers by analytic law.
func TestBatchBitIdentical(t *testing.T) {
	b := NewBatch()

	evals := []EvalRequest{
		{},
		{List: true},
		{Expr: "wC1 o (1S0 || Nd || 0D1)"},
		{Machine: "paragon", Op: "1Q64", Rates: "calibrated"},
		{Machine: "Cray T3D", Op: "wQw", Congestion: 4},
		{Machine: "nope"},
		{Rates: "bogus", Expr: "1C1"},
	}
	for _, r := range evals {
		ref, refErr := Eval(r)
		got, analytic, gotErr := eval(r, b)
		if analytic {
			t.Errorf("eval %+v: eval cells must never be analytic", r)
		}
		checkSame(t, "eval", r, ref, got, refErr, gotErr)
	}

	sawAnalytic := false
	prices := []PriceRequest{
		{X: "1", Y: "1"},
		{X: "1", Y: "64", Style: "chained", Words: 1 << 16},
		{Machine: "paragon", X: "w", Y: "1", Style: "direct", Words: 4096, Duplex: true},
		{Machine: "paragon", X: "64", Y: "64", Style: "pvm", Congestion: 2},
		{X: "1", Y: "1", Words: 777}, // below law coverage: engine fallback
		{X: "1", Y: "1", Words: -1},
		{Machine: "nope", X: "1", Y: "1"},
		{X: "zz", Y: "1"},
	}
	for _, r := range prices {
		ref, refErr := Price(r)
		got, analytic, gotErr := price(r, b)
		sawAnalytic = sawAnalytic || analytic
		checkSame(t, "price", r, ref, got, refErr, gotErr)
	}
	if !sawAnalytic {
		t.Error("no price request took the analytic path; the batch session never engaged")
	}

	plans := []PlanRequest{
		{},
		{Machine: "paragon", N: 4096, P: 16, Src: "CYCLIC", Dst: "BLOCK"},
		{Transpose: 512, P: 16},
		{Src: "CYCLIC(3)", Dst: "CYCLIC(3)"},
		{P: -1},
	}
	for _, r := range plans {
		ref, refErr := Plan(r)
		got, analytic, gotErr := plan(r, b)
		if analytic {
			t.Errorf("plan %+v: plan cells must never be analytic", r)
		}
		checkSame(t, "plan", r, ref, got, refErr, gotErr)
	}
}

func checkSame(t *testing.T, kind string, req, ref, got interface{}, refErr, gotErr error) {
	t.Helper()
	if (refErr == nil) != (gotErr == nil) {
		t.Errorf("%s %+v: err mismatch: point %v, batch %v", kind, req, refErr, gotErr)
		return
	}
	if refErr != nil {
		if refErr.Error() != gotErr.Error() {
			t.Errorf("%s %+v: error text differs: %q vs %q", kind, req, refErr, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("%s %+v:\npoint %+v\nbatch %+v", kind, req, ref, got)
	}
}

// TestBatchMachineSharing pins the pointer-sharing property the comm
// session's memoization depends on: every accepted spelling of one
// profile yields the same *Machine within a batch.
func TestBatchMachineSharing(t *testing.T) {
	b := NewBatch()
	var last interface{}
	for _, name := range []string{"t3d", "cray", "Cray T3D", "", "T3D"} {
		m, err := b.Machine(name)
		if err != nil {
			t.Fatalf("Machine(%q): %v", name, err)
		}
		if last != nil && last != m {
			t.Errorf("Machine(%q) returned a distinct pointer", name)
		}
		last = m
	}
	if _, err := b.Machine("bogus"); err == nil {
		t.Error("unknown machine must error")
	}
}

// TestBatchAnalyticFlag pins the flag semantics: a law-covered contig
// price is analytic, a below-coverage one is not.
func TestBatchAnalyticFlag(t *testing.T) {
	b := NewBatch()
	_, analytic, err := price(PriceRequest{X: "1", Y: "1"}, b) // default 1<<17 words
	if err != nil {
		t.Fatal(err)
	}
	if !analytic {
		t.Error("contiguous price at default words must be analytic")
	}
	_, analytic, err = price(PriceRequest{X: "1", Y: "1", Words: 777}, b)
	if err != nil {
		t.Fatal(err)
	}
	if analytic {
		t.Error("777 words is below law coverage; must report engine")
	}
}
