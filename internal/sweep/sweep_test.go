package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ctcomm/internal/query"
)

func TestExpandDeterministicOrder(t *testing.T) {
	spec := Spec{
		Kind:     "price",
		Machines: []string{"t3d", "paragon"},
		Styles:   []string{"buffer-packing", "chained"},
		Ops:      []string{"1Q64", "wQw"},
		Words:    []int{256, 1024},
	}
	a, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2*2*2*2 {
		t.Fatalf("got %d cells, want 16", len(a))
	}
	b, _ := Expand(spec)
	if !reflect.DeepEqual(a, b) {
		t.Error("Expand is not deterministic")
	}
	// Machines are the outermost axis; indices are dense and ordered.
	for i, c := range a {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if c.Price == nil {
			t.Fatalf("cell %d is not a price cell", i)
		}
	}
	if a[0].Price.Machine != "t3d" || a[8].Price.Machine != "paragon" {
		t.Errorf("machines not outermost: %q then %q", a[0].Price.Machine, a[8].Price.Machine)
	}
	// Cells are canonical: the empty words axis would get the default.
	if a[0].Price.Words != 256 {
		t.Errorf("words = %d", a[0].Price.Words)
	}
}

func TestExpandDefaultsAxes(t *testing.T) {
	cells, err := Expand(Spec{Kind: "eval", Ops: []string{"1Q64"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("got %d cells", len(cells))
	}
	// Canon applied the query defaults, so the fingerprint matches the
	// equivalent point query's.
	want := query.EvalRequest{Op: "1Q64"}.Canon()
	if cells[0].Fingerprint() != want.Fingerprint() {
		t.Errorf("fingerprint %q != point query %q", cells[0].Fingerprint(), want.Fingerprint())
	}
}

func TestExpandXsYsCrossProduct(t *testing.T) {
	cells, err := Expand(Spec{Kind: "price", Xs: []string{"1", "w"}, Ys: []string{"1", "64"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	got := make([]string, len(cells))
	for i, c := range cells {
		got[i] = c.Price.X + "Q" + c.Price.Y
	}
	want := []string{"1Q1", "1Q64", "wQ1", "wQ64"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ops = %v, want %v", got, want)
	}
}

func TestExpandRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		frag string
	}{
		{"unknown kind", Spec{Kind: "nope"}, "unknown kind"},
		{"eval with styles", Spec{Kind: "eval", Ops: []string{"1Q1"}, Styles: []string{"pvm"}}, "does not apply"},
		{"price with exprs", Spec{Kind: "price", Ops: []string{"1Q1"}, Exprs: []string{"1C1"}}, "does not apply"},
		{"plan with words", Spec{Kind: "plan", Ns: []int{64}, Words: []int{8}}, "does not apply"},
		{"transposes with ns", Spec{Kind: "plan", Transposes: []int{64}, Ns: []int{64}}, "excludes"},
		// Two wrong axes: the error names the first in Spec field order.
		{"collective with ops and srcs", Spec{Kind: "collective", Collectives: []string{"shift"},
			Srcs: []string{"BLOCK"}, Ops: []string{"1Q1"}}, `axis "ops" does not apply`},
		{"empty eval", Spec{Kind: "eval"}, "needs at least one"},
		{"empty price", Spec{Kind: "price"}, "needs ops"},
		{"over cap", Spec{Kind: "price", Ops: []string{"1Q1"}, Words: manyInts(DefaultMaxCells + 1)}, "exceeds"},
		{"over hard cap", Spec{Kind: "price", MaxCells: HardMaxCells * 2, Ops: []string{"1Q1"}, Words: manyInts(HardMaxCells + 1)}, "exceeds"},
	}
	for _, c := range cases {
		_, err := Expand(c.spec)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !errors.Is(err, query.ErrBadRequest) {
			t.Errorf("%s: error %v does not wrap ErrBadRequest", c.name, err)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.frag)
		}
	}
}

func manyInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func TestExpandMaxCellsOverride(t *testing.T) {
	spec := Spec{Kind: "price", Ops: []string{"1Q1"}, Words: manyInts(DefaultMaxCells + 1), MaxCells: DefaultMaxCells + 1}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != DefaultMaxCells+1 {
		t.Errorf("got %d cells", len(cells))
	}
}

func TestRunOrderedAndComplete(t *testing.T) {
	cells, err := Expand(Spec{
		Kind:     "eval",
		Machines: []string{"t3d", "paragon"},
		Ops:      []string{"1Q64", "wQw", "1Q1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	st, err := Run(context.Background(), cells, Options{Workers: 4, ChunkSize: 1}, func(r Row) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != len(cells) || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i, r := range rows {
		if r.Index != i {
			t.Errorf("row %d has Index %d (emission must be in cell order)", i, r.Index)
		}
		if r.Eval == nil || r.Err != "" {
			t.Errorf("row %d incomplete: %+v", i, r)
		}
	}
}

// One invalid cell yields exactly one error row; every other cell
// still answers — the partial-failure contract.
func TestRunPartialFailure(t *testing.T) {
	cells, err := Expand(Spec{
		Kind:     "price",
		Machines: []string{"t3d", "cm5", "paragon"},
		Ops:      []string{"1Q64"},
		Styles:   []string{"chained"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	st, err := Run(context.Background(), cells, Options{}, func(r Row) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 3 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want 3 cells with 1 failed", st)
	}
	var bad int
	for _, r := range rows {
		if r.Err != "" {
			bad++
			if !strings.Contains(r.Err, "unknown machine") {
				t.Errorf("error row = %q", r.Err)
			}
			if r.PriceReq == nil || r.PriceReq.Machine != "cm5" {
				t.Errorf("error row echo = %+v", r.PriceReq)
			}
			if r.Price != nil || r.Cached {
				t.Errorf("error row carries a result: %+v", r)
			}
		} else if r.Price == nil || r.Price.MBps <= 0 {
			t.Errorf("good row incomplete: %+v", r)
		}
	}
	if bad != 1 {
		t.Errorf("%d error rows, want exactly 1", bad)
	}
}

// A word count past law.MaxWords is one error row, never an overflowed
// law answer.
func TestRunWordsBoundErrorRow(t *testing.T) {
	cells, err := Expand(Spec{Kind: "price", Ops: []string{"1Q1"}, Styles: []string{"direct"}, Words: []int{4096, 1 << 60}})
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	st, err := Run(context.Background(), cells, Options{}, func(r Row) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 2 || st.Failed != 1 || len(rows) != 2 {
		t.Fatalf("stats = %+v, want 2 cells with 1 failed", st)
	}
	if rows[0].Err != "" || rows[0].Price == nil {
		t.Errorf("good row = %+v", rows[0])
	}
	if !strings.Contains(rows[1].Err, "words must be at most") || rows[1].Price != nil {
		t.Errorf("row for 1<<60 words = %+v, want a words-bound error row", rows[1])
	}
}

// DirectRunner memoizes duplicate cells within a sweep.
func TestDirectRunnerMemo(t *testing.T) {
	// Ops axis repeats the same operation: 3 duplicate cells. With
	// four one-cell chunks the duplicates run concurrently, and still
	// exactly one computes.
	cells, err := Expand(Spec{Kind: "eval", Ops: []string{"1Q64", "1Q64", "1Q64"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{Workers: 1, ChunkSize: 8}, {Workers: 4, ChunkSize: 1}} {
		var rows []Row
		st, err := Run(context.Background(), cells, opt, func(r Row) error {
			rows = append(rows, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Cached != 2 {
			t.Errorf("workers %d: stats = %+v, want 2 cached", opt.Workers, st)
		}
		if opt.Workers == 1 && (rows[0].Cached || !rows[1].Cached || !rows[2].Cached) {
			t.Errorf("cached flags = %v %v %v", rows[0].Cached, rows[1].Cached, rows[2].Cached)
		}
		// All three answers are identical.
		if !reflect.DeepEqual(rows[0].Eval, rows[1].Eval) || !reflect.DeepEqual(rows[1].Eval, rows[2].Eval) {
			t.Errorf("workers %d: memoized answers differ", opt.Workers)
		}
	}
}

// Per-cell byte identity with the point query: the sweep row's
// response (and its rendered Text) must equal query.Eval's exactly.
func TestRunMatchesPointQueries(t *testing.T) {
	spec := Spec{
		Kind:     "eval",
		Machines: []string{"t3d", "paragon"},
		Ops:      []string{"1Q64", "wQw"},
	}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	if _, err := Run(context.Background(), cells, Options{}, func(r Row) error {
		rows = append(rows, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		want, err := query.Eval(*r.EvalReq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*r.Eval, want) {
			t.Errorf("cell %d differs from point query:\nsweep %+v\npoint %+v", r.Index, *r.Eval, want)
		}
		if r.Eval.Text != want.Text {
			t.Errorf("cell %d text not byte-identical", r.Index)
		}
	}
}

func TestRunCancel(t *testing.T) {
	cells, err := Expand(Spec{Kind: "eval", Machines: []string{"t3d", "paragon"}, Ops: []string{"1Q64", "wQw", "1Q1", "64Q1"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var emitted int
	_, err = Run(ctx, cells, Options{Workers: 1, ChunkSize: 1}, func(r Row) error {
		emitted++
		if emitted == 2 {
			cancel()
		}
		return nil
	})
	if err == nil {
		t.Fatalf("cancelled run returned nil error after %d rows", emitted)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunEmitError(t *testing.T) {
	cells, err := Expand(Spec{Kind: "eval", Ops: []string{"1Q64", "wQw"}})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("client gone")
	st, err := Run(context.Background(), cells, Options{}, func(r Row) error {
		if r.Index == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if st.Cells != 0 {
		t.Errorf("stats count rows after a failed emit: %+v", st)
	}
}

func TestTableRendersErrorsInNotes(t *testing.T) {
	spec := Spec{Kind: "price", Machines: []string{"t3d", "cm5"}, Ops: []string{"1Q64"}, Styles: []string{"chained"}}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	st, err := Run(context.Background(), cells, Options{}, func(r Row) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := Table(spec, rows, st)
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "1 failed") || !strings.Contains(out, "unknown machine") {
		t.Errorf("table missing failure rendering:\n%s", out)
	}
	if !strings.Contains(out, "T3D") {
		t.Errorf("table missing good row:\n%s", out)
	}
}
