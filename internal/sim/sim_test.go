package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2_500_000, "2.500ms"},
		{3_000_000_000, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if s := Time(2_000_000_000).Seconds(); s != 2.0 {
		t.Errorf("Seconds = %v, want 2.0", s)
	}
}

func TestResourceSerializesClaims(t *testing.T) {
	r := new(Resource)
	s1, e1 := r.Claim(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Errorf("first claim [%v,%v), want [0,10)", s1, e1)
	}
	// Overlapping claim must be pushed back.
	s2, e2 := r.Claim(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Errorf("second claim [%v,%v), want [10,20)", s2, e2)
	}
	// A later claim starts on time.
	s3, e3 := r.Claim(100, 1)
	if s3 != 100 || e3 != 101 {
		t.Errorf("third claim [%v,%v), want [100,101)", s3, e3)
	}
	if r.Busy() != 21 {
		t.Errorf("busy = %v, want 21", r.Busy())
	}
	if r.Claims() != 3 {
		t.Errorf("claims = %d, want 3", r.Claims())
	}
}

func TestResourceUtilization(t *testing.T) {
	r := new(Resource)
	r.Claim(0, 10)
	r.Claim(10, 10)
	if u := r.Utilization(); u != 1.0 {
		t.Errorf("fully busy utilization = %v, want 1.0", u)
	}
	r = new(Resource)
	if r.Utilization() != 0 {
		t.Error("unused resource's utilization should be 0")
	}
	r.Claim(0, 10)
	r.Claim(30, 10) // idle 10..30
	if u := r.Utilization(); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

func TestResourceNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative duration should panic")
		}
	}()
	new(Resource).Claim(0, -1)
}

// Property: claims never overlap and never start before requested.
func TestResourceClaimProperty(t *testing.T) {
	f := func(reqs []uint16) bool {
		r := new(Resource)
		var lastEnd Time
		at := Time(0)
		for _, q := range reqs {
			dur := Time(q % 100)
			start, end := r.Claim(at, dur)
			if start < at || start < lastEnd || end != start+dur {
				return false
			}
			lastEnd = end
			at += Time(q % 37) // requests move forward in time
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// pipeline pushes chunks through an ordered chain of resources and
// returns the makespan: chunk i enters stage s+1 only when it leaves
// stage s, and each stage serves chunks in order (a FIFO flow shop).
// durations[i][s] is chunk i's service time on stage s. This is how a
// chunked message claims its hops, the pipelining the paper assumes for
// composed transfers (§4).
func pipeline(resources []*Resource, durations [][]Time) Time {
	var finish Time
	ready := make([]Time, len(durations))
	for s, res := range resources {
		for i := range durations {
			_, end := res.Claim(ready[i], durations[i][s])
			ready[i] = end
			if end > finish {
				finish = end
			}
		}
	}
	return finish
}

func TestPipelineBottleneckDominates(t *testing.T) {
	// Three stages; middle stage is the bottleneck at 10 per chunk.
	rs := []*Resource{new(Resource), new(Resource), new(Resource)}
	const n = 100
	d := make([][]Time, n)
	for i := range d {
		d[i] = []Time{2, 10, 3}
	}
	got := pipeline(rs, d)
	// Steady state: n*10 plus pipeline fill (2) and drain (3).
	want := Time(n*10 + 2 + 3)
	if got != want {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

// Property: pipeline makespan is at least the busiest stage's total work
// and at most the sum of all work (fully serial execution).
func TestPipelineBoundsProperty(t *testing.T) {
	f := func(work [][3]uint8) bool {
		if len(work) == 0 {
			return true
		}
		rs := []*Resource{new(Resource), new(Resource), new(Resource)}
		d := make([][]Time, len(work))
		var stageSum [3]Time
		var total Time
		for i, w := range work {
			d[i] = []Time{Time(w[0]), Time(w[1]), Time(w[2])}
			for s := 0; s < 3; s++ {
				stageSum[s] += d[i][s]
				total += d[i][s]
			}
		}
		m := pipeline(rs, d)
		maxStage := stageSum[0]
		for _, s := range stageSum[1:] {
			if s > maxStage {
				maxStage = s
			}
		}
		return m >= maxStage && m <= total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
