package query

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"ctcomm/internal/collective"
	"ctcomm/internal/comm"
	"ctcomm/internal/law"
	"ctcomm/internal/memo"
	"ctcomm/internal/pattern"
	"ctcomm/internal/xfer"
)

// lawKeys records the law every periodic transfer of a price cell
// would be answered from in a comm.Session — (kind, x, y, words mod
// period) — by assembling the cell through a recording source.
type lawKeys struct {
	r    PriceRequest
	keys map[lawKey]int64 // transfer -> residue
}

type lawKey struct {
	kind xfer.Kind
	x, y pattern.Spec
}

func (l *lawKeys) Transfer(kind xfer.Kind, x, y pattern.Spec, words int) (xfer.Result, bool, error) {
	m, _ := ResolveMachine(l.r.Machine)
	if p := xfer.PeriodOf(m, kind, x, y); p > 0 {
		l.keys[lawKey{kind, x, y}] = int64(words % p)
	}
	return xfer.Result{}, false, nil
}

func priceLawKeys(t *testing.T, r PriceRequest) map[lawKey]int64 {
	t.Helper()
	m, err := ResolveMachine(r.Machine)
	if err != nil {
		t.Fatal(err)
	}
	st, err := comm.ParseStyle(r.Style)
	if err != nil {
		t.Fatal(err)
	}
	x, y, err := ParseOp(r.X + "Q" + r.Y)
	if err != nil {
		t.Fatal(err)
	}
	l := &lawKeys{r: r, keys: map[lawKey]int64{}}
	_, _ = comm.RunWith(m, st, x, y, comm.Options{Words: r.Words}, l)
	return l.keys
}

var (
	homeMachines = []string{"t3d", "cray", "paragon", "cluster", "xe6"}
	homeStyles   = []string{"buffer-packing", "chained", "direct", "pvm"}
	homeShapesXY = [][2]string{{"1", "1"}, {"1", "64"}, {"64", "1"}, {"16", "1"}, {"8", "8"},
		{"4x2", "1"}, {"w", "1"}, {"1", "w"}, {"w", "w"}, {"100000", "1"}}
)

// TestHomeKeyProperties checks the home-key contract on random price
// and collective cells over the built-in profiles: word counts equal
// modulo the period share a home key whatever the congestion, duplex
// or (for equal periods) style; cells that share a home key answer
// every transfer they both need from the same law; a cell with no
// periodic law, and every eval, plan and fit request, keeps its
// fingerprint.
func TestHomeKeyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	price := Lookup("price")
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	randPrice := func(m string, xy [2]string) PriceRequest {
		return PriceRequest{Machine: m, Style: pick(homeStyles), X: xy[0], Y: xy[1],
			Words: 1 + rng.Intn(1<<20), Congestion: float64(rng.Intn(4)), Duplex: rng.Intn(2) == 0}
	}
	periodOf := func(r PriceRequest) int64 {
		m, _ := ResolveMachine(r.Machine)
		st, _ := comm.ParseStyle(r.Style)
		x, y, _ := ParseOp(r.X + "Q" + r.Y)
		return comm.WordsPeriod(m, st, x, y)
	}
	shared, aperiodic := 0, 0
	for i := 0; i < 400; i++ {
		mach, xy := pick(homeMachines), homeShapesXY[rng.Intn(len(homeShapesXY))]
		a := randPrice(mach, xy)
		pa := periodOf(a)
		if pa == 0 {
			aperiodic++
			if got := price.Home(&a); got != a.Fingerprint() {
				t.Fatalf("%+v has no law but home %q, not its fingerprint", a, got)
			}
			continue
		}
		// The same residue class, any congestion and duplex, and the
		// same style or another with the same period.
		b := randPrice(mach, xy)
		b.Style = a.Style
		if c := randPrice(mach, xy); periodOf(c) == pa {
			b.Style = c.Style
		}
		b.Words = a.Words%int(pa) + int(pa)*rng.Intn(1<<20/int(pa))
		if b.Words == 0 {
			b.Words += int(pa)
		}
		if price.Home(&a) != price.Home(&b) {
			t.Fatalf("%+v and %+v are equal mod %d but have homes %q and %q", a, b, pa, price.Home(&a), price.Home(&b))
		}
		if a.Words%int(pa) != (a.Words+1)%int(pa) && price.Home(&a) == price.Home(&PriceRequest{
			Machine: a.Machine, Style: a.Style, X: a.X, Y: a.Y, Words: a.Words + 1}) {
			t.Fatalf("%+v shares its home with the next residue class", a)
		}
		// Equal homes share every common transfer's law.
		ka, kb := priceLawKeys(t, a), priceLawKeys(t, b)
		for k, ra := range ka {
			if rb, ok := kb[k]; ok && ra != rb {
				t.Fatalf("%+v and %+v share home %q but need %v at residues %d and %d", a, b, price.Home(&a), k, ra, rb)
			}
			shared++
		}
	}
	if shared == 0 || aperiodic == 0 {
		t.Fatalf("%d shared laws, %d aperiodic cells: the draw misses a case", shared, aperiodic)
	}

	coll := Lookup("collective")
	collectives := []string{"all-to-all", "broadcast", "shift", "reduce"}
	for i := 0; i < 100; i++ {
		a := CollectiveRequest{Machine: pick(homeMachines), Collective: pick(collectives),
			Nodes: []int{0, 4, 8, 16}[rng.Intn(4)], Words: 1 + rng.Intn(1<<16), Engine: rng.Intn(4) == 0}
		// The home period is the lcm of every strategy's plan period.
		m, _ := ResolveMachine(a.Machine)
		op, _ := collective.ParseOp(a.Collective)
		nodes := a.Nodes
		if nodes == 0 {
			nodes = m.Nodes()
		}
		var period int64
		for _, st := range collective.Strategies() {
			if plan, err := collective.New(op, st, nodes, a.Canon().Offset); err == nil {
				period = law.LCM(period, plan.WordsPeriod(m))
			}
		}
		ha := coll.Home(&a)
		if (ha == a.Fingerprint()) != (period == 0) {
			t.Fatalf("%+v: period %d but home %q", a, period, ha)
		}
		if period == 0 {
			continue
		}
		b := a
		b.Words += int(period) * (1 + rng.Intn(8))
		b.Strategy = pick([]string{"", "pairwise", "hyper-systolic"})
		b.Level = ""
		if hb := coll.Home(&b); hb != ha {
			t.Fatalf("%+v and %+v: homes %q and %q", a, b, ha, hb)
		}
		if c := (CollectiveRequest{Machine: a.Machine, Collective: a.Collective, Nodes: a.Nodes, Words: a.Words + 1,
			Engine: a.Engine}); period > 1 && coll.Home(&c) == ha {
			t.Fatalf("%+v shares its home with the next residue class", a)
		}
	}

	others := []Request{
		&EvalRequest{Machine: "t3d", Op: "1Q64"},
		&PlanRequest{Machine: "paragon", N: 4096, P: 8, Src: "BLOCK", Dst: "CYCLIC"},
		&FitRequest{Base: "xe6"},
		&PriceRequest{Machine: "t3d", X: "0", Y: "1", Words: 64},  // not a memory pattern
		&PriceRequest{Machine: "nope", X: "1", Y: "1", Words: 64}, // unknown machine
		&CollectiveRequest{Machine: "t3d", Collective: "gather"},  // unknown collective
	}
	for _, r := range others {
		if got := KindOf(r).Home(r); got != r.Fingerprint() {
			t.Errorf("%T %+v: home %q, want its fingerprint", r, r, got)
		}
	}
}

// TestHomeKeyAllocations: a memoized price home key costs one string.
func TestHomeKeyAllocations(t *testing.T) {
	price := Lookup("price")
	r := &PriceRequest{Machine: "t3d", Style: "chained", X: "1", Y: "64", Words: 45056}
	price.Home(r)
	if n := testing.AllocsPerRun(200, func() { price.Home(r) }); n > 1 {
		t.Errorf("price home key allocates %v times, want at most 1", n)
	}
}

// TestHomeKeyConcurrent: router handlers compute home keys from many
// goroutines at once. More distinct shapes than the memo holds force
// it to empty and refill mid-run; every key must still equal the one
// computed alone.
func TestHomeKeyConcurrent(t *testing.T) {
	price := Lookup("price")
	const workers, perWorker = 4, memo.Max / 3
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := &PriceRequest{Machine: "xe6", X: strconv.Itoa(2 + w*perWorker + i), Y: "1", Words: 4096 + i}
				got[w] = append(got[w], price.Home(r))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, h := range got[w] {
			r := &PriceRequest{Machine: "xe6", X: strconv.Itoa(2 + w*perWorker + i), Y: "1", Words: 4096 + i}
			if again := price.Home(r); again != h {
				t.Fatalf("%+v: home %q concurrently, %q alone", r, h, again)
			}
		}
	}
}
