package query

import (
	"errors"
	"strings"
	"testing"

	"ctcomm/internal/collective"
	"ctcomm/internal/comm"
	"ctcomm/internal/law"
)

func TestEvalExpr(t *testing.T) {
	resp, err := Eval(EvalRequest{Machine: "t3d", Expr: "1C64"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.MBps <= 0 {
		t.Errorf("MBps = %v, want > 0", resp.MBps)
	}
	if resp.Expr != "1C64" {
		t.Errorf("Expr = %q", resp.Expr)
	}
	if !strings.Contains(resp.Text, "|1C64| = ") || !strings.Contains(resp.Text, "machine Cray T3D") {
		t.Errorf("Text = %q", resp.Text)
	}
	if resp.Congestion != 2 { // the T3D default
		t.Errorf("Congestion = %v, want machine default 2", resp.Congestion)
	}
}

func TestEvalOp(t *testing.T) {
	resp, err := Eval(EvalRequest{Machine: "t3d", Op: "1Q64"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Packed == nil || resp.Packed.MBps <= 0 {
		t.Fatalf("Packed = %+v", resp.Packed)
	}
	if resp.Chained == nil || resp.Chained.MBps <= resp.Packed.MBps {
		t.Errorf("chained %v should beat packed %v on the T3D", resp.Chained, resp.Packed)
	}
	for _, want := range []string{"buffer-packing:", "chained:", "bottleneck:"} {
		if !strings.Contains(resp.Text, want) {
			t.Errorf("Text missing %q:\n%s", want, resp.Text)
		}
	}
}

func TestEvalList(t *testing.T) {
	resp, err := Eval(EvalRequest{List: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Table) == 0 {
		t.Fatal("empty rate table")
	}
	if !strings.Contains(resp.Text, "rate table") {
		t.Errorf("Text = %q", resp.Text)
	}
}

func TestEvalDeterministic(t *testing.T) {
	req := EvalRequest{Machine: "paragon", Op: "wQ1", Congestion: 4}
	a, err := Eval(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Eval(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != b.Text {
		t.Errorf("same request, different text:\n%q\n%q", a.Text, b.Text)
	}
}

func TestEvalBadRequests(t *testing.T) {
	cases := []EvalRequest{
		{},                            // nothing to do
		{Machine: "cm5", Expr: "1C1"}, // unknown machine
		{Expr: "1Z1"},                 // bad expression
		{Op: "Q1"},                    // bad op
		{Rates: "measured", Expr: "1C1"},
		{Op: "0Q64"}, {Op: "64Q0"}, {Op: "0Q0"}, // the port is no memory pattern
		{Expr: "2C2"}, // a term the rate table does not cover
	}
	for _, req := range cases {
		if _, err := Eval(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Eval(%+v) err = %v, want ErrBadRequest", req, err)
		}
	}
}

// TestClientInputIsBadRequest pins inputs that once failed without
// ErrBadRequest, so a server answered them 500 as if it were at fault.
func TestClientInputIsBadRequest(t *testing.T) {
	for _, style := range []string{"buffer-packing", "chained", "direct", "pvm"} {
		for _, xy := range [][2]string{{"0", "64"}, {"64", "0"}, {"0", "0"}} {
			req := PriceRequest{Style: style, X: xy[0], Y: xy[1], Words: 64}
			if _, err := Price(req); !errors.Is(err, ErrBadRequest) {
				t.Errorf("Price(%+v) err = %v, want ErrBadRequest", req, err)
			}
		}
	}
	for _, req := range []PlanRequest{
		{Src: "CYCLIC(0)", Dst: "BLOCK", N: 64, P: 4},
		{Src: "BLOCK", Dst: "CYCLIC(-2)", N: 64, P: 4},
		{Transpose: 3, P: 8},
		{Transpose: 10, P: 4},
	} {
		if _, err := Plan(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Plan(%+v) err = %v, want ErrBadRequest", req, err)
		}
	}
}

func TestEvalFingerprintDefaults(t *testing.T) {
	a := EvalRequest{Expr: "1C1"}.Fingerprint()
	b := EvalRequest{Machine: "t3d", Rates: "paper", Expr: "1C1"}.Fingerprint()
	if a != b {
		t.Errorf("defaulted fingerprints differ: %q vs %q", a, b)
	}
	c := EvalRequest{Machine: "paragon", Expr: "1C1"}.Fingerprint()
	if a == c {
		t.Errorf("different machines share fingerprint %q", a)
	}
}

func TestPlanRedistribution(t *testing.T) {
	resp, err := Plan(PlanRequest{Machine: "t3d", N: 4096, P: 16, Src: "BLOCK", Dst: "CYCLIC"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Transfers == 0 || resp.Words == 0 {
		t.Fatalf("empty plan: %+v", resp)
	}
	if resp.Recommendation != "chained" {
		t.Errorf("Recommendation = %q, want chained on the T3D", resp.Recommendation)
	}
	for _, want := range []string{"machine: ", "plan: ", "buffer-packing:", "recommendation:"} {
		if !strings.Contains(resp.Text, want) {
			t.Errorf("Text missing %q:\n%s", want, resp.Text)
		}
	}
}

func TestPlanIdentity(t *testing.T) {
	resp, err := Plan(PlanRequest{N: 1024, P: 8, Src: "BLOCK", Dst: "BLOCK"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Transfers != 0 || resp.Packed != nil {
		t.Fatalf("identity remap should need no communication: %+v", resp)
	}
	if !strings.Contains(resp.Text, "no communication required") {
		t.Errorf("Text = %q", resp.Text)
	}
}

func TestPlanTranspose(t *testing.T) {
	resp, err := Plan(PlanRequest{Machine: "paragon", Transpose: 256, P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Operation, "256x256") || !strings.Contains(resp.Operation, "strided loads") {
		t.Errorf("Operation = %q", resp.Operation)
	}
}

func TestPlanBadRequests(t *testing.T) {
	cases := []PlanRequest{
		{N: -1, P: 16},
		{N: 1024, P: -2},
		{Transpose: -5, P: 4},
		{Machine: "cm5"},
		{Src: "SCATTERED"},
		{Dst: "CYCLIC(x)"},
		{N: MaxPlanElements + 1, P: 16},
		{Transpose: 1025, P: 4}, // 1025² > MaxPlanElements
		{Transpose: 1 << 40, P: 4},
		{N: 1024, P: collective.MaxNodes + 1},
	}
	for _, req := range cases {
		if _, err := Plan(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Plan(%+v) err = %v, want ErrBadRequest", req, err)
		}
	}
}

func TestPriceStyles(t *testing.T) {
	var prev float64
	for i, style := range []string{"pvm", "buffer-packing", "chained"} {
		resp, err := Price(PriceRequest{Machine: "t3d", Style: style, X: "1", Y: "64", Words: 1 << 12})
		if err != nil {
			t.Fatalf("%s: %v", style, err)
		}
		if resp.MBps <= 0 {
			t.Fatalf("%s: MBps = %v", style, resp.MBps)
		}
		if resp.Op != "1Q64" {
			t.Errorf("Op = %q", resp.Op)
		}
		if i > 0 && resp.MBps <= prev {
			t.Errorf("%s (%.1f MB/s) should beat the previous style (%.1f MB/s)", style, resp.MBps, prev)
		}
		prev = resp.MBps
	}
}

func TestPriceBadRequests(t *testing.T) {
	cases := []PriceRequest{
		{X: "1", Y: "1", Words: -3},
		{X: "1", Y: "1", Style: "direct", Words: law.MaxWords + 1},
		{X: "q", Y: "1"},
		{X: "1", Y: ""},
		{Style: "mpi", X: "1", Y: "1"},
		{Machine: "cm5", X: "1", Y: "1"},
	}
	for _, req := range cases {
		if _, err := Price(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Price(%+v) err = %v, want ErrBadRequest", req, err)
		}
		if _, _, err := price(req, NewBatch()); !errors.Is(err, ErrBadRequest) {
			t.Errorf("price(%+v) err = %v, want ErrBadRequest", req, err)
		}
	}
}

// The batch path answers law-covered word counts by extrapolation, so
// an unbounded count would overflow silently instead of running long:
// 1<<60 words must be rejected, and law.MaxWords itself still priced.
func TestBatchPriceWordsBound(t *testing.T) {
	req := PriceRequest{X: "1", Y: "1", Style: "direct", Words: 1 << 60}
	if resp, _, err := price(req, NewBatch()); !errors.Is(err, ErrBadRequest) {
		t.Errorf("price(%d words) = %+v, %v; want ErrBadRequest", req.Words, resp, err)
	}
	req.Words = law.MaxWords
	resp, analytic, err := price(req, NewBatch())
	if err != nil || !analytic || resp.ElapsedUs <= 0 || resp.PayloadBytes != law.MaxWords*8 {
		t.Errorf("price(%d words) = %+v (analytic %t), %v; want a positive law answer", req.Words, resp, analytic, err)
	}
}

func TestParseStyleRoundTrip(t *testing.T) {
	for _, s := range []comm.Style{comm.BufferPacking, comm.Chained, comm.Direct, comm.PVM} {
		got, err := comm.ParseStyle(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStyle(%q) = %v, %v", s.String(), got, err)
		}
	}
}

func TestResolveMachineSpellings(t *testing.T) {
	for name, want := range map[string]string{
		"t3d": "Cray T3D", "Cray T3D": "Cray T3D", "CRAY": "Cray T3D",
		"paragon": "Intel Paragon", "Intel Paragon": "Intel Paragon", "": "Cray T3D",
	} {
		m, err := ResolveMachine(name)
		if err != nil || m.Name != want {
			t.Errorf("ResolveMachine(%q) = %v, %v; want %s", name, m, err, want)
		}
	}
}
