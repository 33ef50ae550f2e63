package query

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"ctcomm/internal/law"
)

// TestCollectiveBadRequests is the error-path contract: malformed
// collective requests answer ErrBadRequest (HTTP 400 / exit code 2)
// with valid-name listings — never a panic.
func TestCollectiveBadRequests(t *testing.T) {
	cases := []struct {
		name string
		req  CollectiveRequest
		want string // substring the error must carry
	}{
		{"unknown collective", CollectiveRequest{Collective: "gather"}, "valid: all-to-all, broadcast, shift, reduce"},
		{"empty collective", CollectiveRequest{}, "valid: all-to-all, broadcast, shift, reduce"},
		{"unknown strategy", CollectiveRequest{Collective: "broadcast", Strategy: "butterfly"}, "valid: pairwise, doubling, hyper-systolic"},
		{"unknown machine", CollectiveRequest{Machine: "cm5", Collective: "reduce"}, "valid names"},
		{"level on flat machine", CollectiveRequest{Machine: "paragon", Collective: "shift", Level: "intra-socket"}, "flat profile"},
		{"bogus level", CollectiveRequest{Machine: "cluster", Collective: "shift", Level: "rack"}, "level"},
		{"one node", CollectiveRequest{Collective: "broadcast", Nodes: 1}, "2..64"},
		{"too many nodes", CollectiveRequest{Collective: "all-to-all", Nodes: 65}, "2..64"},
		{"nodes beyond level domain", CollectiveRequest{Machine: "cluster", Collective: "reduce", Level: "intra-socket", Nodes: 8}, "2..4"},
		{"negative words", CollectiveRequest{Collective: "all-to-all", Words: -8}, "words"},
		{"words past law bound", CollectiveRequest{Collective: "broadcast", Strategy: "pairwise", Nodes: 2, Words: law.MaxWords + 1}, "at most"},
		{"zero offset shift", CollectiveRequest{Collective: "shift", Offset: 64}, "offset"},
		{"doubling non-pow2", CollectiveRequest{Collective: "broadcast", Strategy: "doubling", Nodes: 12}, "power-of-two"},
		{"hyper-systolic prime", CollectiveRequest{Collective: "all-to-all", Strategy: "hyper-systolic", Nodes: 13}, "prime"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Collective(tc.req)
			if err == nil {
				t.Fatalf("%+v: want error, got nil", tc.req)
			}
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%+v: error %v is not ErrBadRequest", tc.req, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%+v: error %q does not mention %q", tc.req, err, tc.want)
			}
		})
	}
}

// TestCollectiveDifferential pins the differential contract at the
// query layer: for every collective, every strategy's hybrid-analytic
// answer is byte-identical to forcing the event engine, across two
// hierarchical machines and two levels each (plus the flat default).
func TestCollectiveDifferential(t *testing.T) {
	type domain struct {
		machine string
		level   string
	}
	domains := []domain{
		{"t3d", ""},
		{"cluster", "intra-socket"},
		{"cluster", "inter-node"},
		{"xe6", "inter-socket"},
		{"xe6", "inter-node"},
	}
	for _, d := range domains {
		for _, coll := range []string{"all-to-all", "broadcast", "shift", "reduce"} {
			req := CollectiveRequest{Machine: d.machine, Collective: coll, Level: d.level, Words: 64}
			hybrid, err := Collective(req)
			if err != nil {
				t.Fatalf("%+v: %v", req, err)
			}
			eng := req
			eng.Engine = true
			ref, err := Collective(eng)
			if err != nil {
				t.Fatalf("%+v engine: %v", eng, err)
			}
			if hybrid.Text != ref.Text {
				t.Errorf("%s/%s %s: hybrid text differs from engine text:\n--- hybrid\n%s\n--- engine\n%s",
					d.machine, d.level, coll, hybrid.Text, ref.Text)
			}
			if hybrid.Winner != ref.Winner {
				t.Errorf("%s/%s %s: winner %q (hybrid) != %q (engine)", d.machine, d.level, coll, hybrid.Winner, ref.Winner)
			}
			for i := range hybrid.Strategies {
				h, e := hybrid.Strategies[i], ref.Strategies[i]
				if h.MakespanUs != e.MakespanUs || h.Congestion != e.Congestion {
					t.Errorf("%s/%s %s/%s: hybrid %v/%v != engine %v/%v",
						d.machine, d.level, coll, h.Strategy, h.MakespanUs, h.Congestion, e.MakespanUs, e.Congestion)
				}
				if e.AnalyticPhases != 0 {
					t.Errorf("%s/%s %s/%s: engine run reports analytic phases", d.machine, d.level, coll, e.Strategy)
				}
			}
		}
	}
}

// TestCollectiveBatchBitIdentical: the batch path changes cost, never
// answers — same contract every other query obeys.
func TestCollectiveBatchBitIdentical(t *testing.T) {
	b := NewBatch()
	reqs := []CollectiveRequest{
		{Collective: "all-to-all"},
		{Machine: "cluster", Collective: "broadcast", Level: "inter-socket", Words: 512},
		{Machine: "xe6", Collective: "shift", Offset: 9, Strategy: "hyper-systolic"},
		{Machine: "paragon", Collective: "reduce", Words: 32},
	}
	for _, req := range reqs {
		point, err := Collective(req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		batched, _, err := collectiveQ(req, b)
		if err != nil {
			t.Fatalf("batch %+v: %v", req, err)
		}
		if point.Text != batched.Text {
			t.Errorf("%+v: batch text differs:\n--- point\n%s\n--- batch\n%s", req, point.Text, batched.Text)
		}
	}
}

// TestCollectiveBatchWordsLaw pins the words-law provenance at the
// query layer: a law-covered word count answers analytically through a
// batch — byte-identical to the point query, rendered Text included —
// while a word count below the coverage threshold falls back to the
// evaluator and reports non-analytic.
func TestCollectiveBatchWordsLaw(t *testing.T) {
	b := NewBatch()
	cases := []struct {
		req      CollectiveRequest
		analytic bool
	}{
		// t3d pairwise structural period is 512 words: 2048 is covered,
		// 2085 is covered on the off-period residue-37 law, 100 is below
		// the one-period coverage floor.
		{CollectiveRequest{Collective: "all-to-all", Nodes: 16, Words: 2048}, true},
		{CollectiveRequest{Collective: "all-to-all", Nodes: 16, Words: 2085}, true},
		{CollectiveRequest{Collective: "all-to-all", Nodes: 16, Words: 100}, false},
		{CollectiveRequest{Machine: "xe6", Collective: "shift", Strategy: "pairwise",
			Offset: 3, Nodes: 16, Words: 1024, Level: "inter-node"}, true},
	}
	for _, c := range cases {
		point, err := Collective(c.req)
		if err != nil {
			t.Fatalf("%+v: %v", c.req, err)
		}
		batched, analytic, err := collectiveQ(c.req, b)
		if err != nil {
			t.Fatalf("batch %+v: %v", c.req, err)
		}
		pj, err := json.Marshal(point)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(batched)
		if err != nil {
			t.Fatal(err)
		}
		if string(pj) != string(bj) {
			t.Errorf("%+v: batch differs from point query:\npoint %s\nbatch %s", c.req, pj, bj)
		}
		if analytic != c.analytic {
			t.Errorf("%+v: analytic = %t, want %t", c.req, analytic, c.analytic)
		}
	}
}

// FuzzCollectiveWordsLaw fuzzes the law bit-identity contract cell by
// cell: any collective request the grammar admits must answer
// identically — error text, or marshaled bytes with Text included —
// through a batch (laws, memoized plans, cached congestion) and as a
// point query. Run in the fuzz-smoke CI job.
func FuzzCollectiveWordsLaw(f *testing.F) {
	// Seeds cross the law boundaries: covered residue-0, covered
	// off-residue, below coverage, engine-forced, level-restricted,
	// error path (flat machine with a level).
	f.Add(uint8(0), uint8(0), uint8(0), uint8(3), uint16(2048), uint8(0), uint8(0), false)
	f.Add(uint8(3), uint8(2), uint8(1), uint8(3), uint16(1061), uint8(3), uint8(3), false)
	f.Add(uint8(1), uint8(0), uint8(2), uint8(2), uint16(100), uint8(0), uint8(0), true)
	f.Add(uint8(2), uint8(3), uint8(3), uint8(1), uint16(4096), uint8(1), uint8(0), false)
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), uint16(512), uint8(2), uint8(0), false)
	f.Fuzz(func(t *testing.T, mi, ci, si, ni uint8, words uint16, oi, li uint8, engine bool) {
		machines := []string{"t3d", "paragon", "cluster", "xe6"}
		colls := []string{"all-to-all", "broadcast", "shift", "reduce"}
		strats := []string{"", "pairwise", "doubling", "hyper-systolic"}
		nodeCounts := []int{2, 4, 8, 15, 16}
		levels := []string{"", "intra-socket", "inter-socket", "inter-node"}
		req := CollectiveRequest{
			Machine:    machines[int(mi)%len(machines)],
			Collective: colls[int(ci)%len(colls)],
			Strategy:   strats[int(si)%len(strats)],
			Nodes:      nodeCounts[int(ni)%len(nodeCounts)],
			// Cap the axis so the engine reference stays cheap while
			// still crossing every structural period (the largest, the
			// cluster's, is 2048 words).
			Words:  int(words%4096) + 1,
			Offset: int(oi) % 8,
			Level:  levels[int(li)%len(levels)],
			Engine: engine,
		}.Canon()

		ref, refErr := Collective(req)
		got, _, gotErr := collectiveQ(req, NewBatch())
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("%+v: err mismatch: point %v, batch %v", req, refErr, gotErr)
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
			t.Fatalf("%+v:\npoint %s\nbatch %s", req, rj, gj)
		}
	})
}

// TestCollectiveFingerprintCanonical: aliases and explicit defaults
// share one cache key; distinct requests get distinct keys.
func TestCollectiveFingerprintCanonical(t *testing.T) {
	base := CollectiveRequest{Machine: "t3d", Collective: "all-to-all", Words: 256}
	same := []CollectiveRequest{
		{Collective: "all-to-all"},
		{Machine: "T3D", Collective: "a2a"},
		{Collective: "AllToAll", Words: 256},
	}
	for _, s := range same {
		if s.Fingerprint() != base.Fingerprint() {
			t.Errorf("%+v fingerprint %q != base %q", s, s.Fingerprint(), base.Fingerprint())
		}
	}
	diff := []CollectiveRequest{
		{Collective: "broadcast"},
		{Collective: "all-to-all", Strategy: "hypersystolic"},
		{Collective: "all-to-all", Words: 512},
		{Collective: "all-to-all", Engine: true},
		{Machine: "xe6", Collective: "all-to-all"},
		{Collective: "all-to-all", Level: "inter-socket"},
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for _, d := range diff {
		fp := d.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Errorf("%+v collides with %s on %q", d, prev, fp)
		}
		seen[fp] = d.Collective + "/" + d.Strategy
	}
	// Strategy aliases canonicalize.
	a := CollectiveRequest{Collective: "all-to-all", Strategy: "hypersystolic"}
	b := CollectiveRequest{Collective: "all-to-all", Strategy: "Hyper-Systolic"}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("strategy aliases do not share a fingerprint: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
}

// TestCollectiveResponseShape: the JSON wire shape is stable and the
// comparison carries all three strategies plus a winner.
func TestCollectiveResponseShape(t *testing.T) {
	resp, err := Collective(CollectiveRequest{Machine: "cluster", Collective: "all-to-all", Level: "inter-node"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Strategies) != 3 {
		t.Fatalf("comparison returned %d strategies, want 3", len(resp.Strategies))
	}
	if resp.Winner == "" {
		t.Error("comparison has no winner")
	}
	hyper := resp.Strategies[2]
	if hyper.Strategy != "hyper-systolic" || hyper.ReplicaBlocks == 0 {
		t.Errorf("hyper-systolic replica storage not surfaced: %+v", hyper)
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var back CollectiveResponse
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Text != resp.Text {
		t.Error("response does not round-trip through JSON")
	}
}
