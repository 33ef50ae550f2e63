package main

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request's client-side timing.
type sample struct {
	total, first time.Duration
}

// roundStat is one completed round of the closed loop.
type roundStat struct {
	dur     time.Duration
	answers int
	samples []sample
}

// loop drives the closed loop: for each round, in.Conns workers take
// the round's requests in order, each sending its next request only
// when the previous answer is complete; the round ends when all are
// answered. Rounds start until deadline passes (a zero deadline runs
// them all). Answers the checker keeps are verified after the clock.
// Between rounds, at most every paceEvery, it times the pace probe.
type loop struct {
	client *http.Client
	base   string
	in     *Inputs
	ck     *checker
	paces  []time.Duration
}

func (l *loop) run(rounds [][]int32, deadline time.Time) []roundStat {
	var stats []roundStat
	var lastPace time.Time
	for _, round := range rounds {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		stats = append(stats, l.round(round))
		if time.Since(lastPace) >= paceEvery {
			l.paces = append(l.paces, paceProbe())
			lastPace = time.Now()
		}
	}
	return stats
}

func (l *loop) round(round []int32) roundStat {
	st := roundStat{samples: make([]sample, len(round))}
	var next atomic.Int64
	var answers atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < l.in.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(round) {
					return
				}
				idx := round[i]
				r := &l.in.Reqs[idx]
				keep := l.ck.wants(idx)
				o := send(l.client, l.base, r, keep)
				l.ck.record(idx, o)
				st.samples[i] = sample{o.total, o.first}
				answers.Add(int64(o.answers))
			}
		}()
	}
	wg.Wait()
	st.dur = time.Since(start)
	st.answers = int(answers.Load())
	return st
}

// sendAll sends requests one at a time, outside any measurement.
func (l *loop) sendAll(idx []int) {
	for _, i := range idx {
		l.ck.record(int32(i), send(l.client, l.base, &l.in.Reqs[i], false))
	}
}

// The host this benchmark was tuned on (2 cores shared with other
// tenants) changes pace by up to a fifth between runs a minute apart,
// and holds it for the length of a run, so no choice among a run's own
// rounds removes it. Every run therefore also times a fixed reference
// job, the pace probe, between rounds, and states its timings at the
// probe's reference pace: measured times are multiplied, and rates
// divided, by paceRef over the probe's median time in the run. The
// probe allocates nothing, and it runs with the collector off, after
// any cycle in progress has finished, so the program's heap and
// collector do not move it; only the host does.
const (
	paceEvery = 500 * time.Millisecond
	// paceRef is the probe's median time on the host the bounds in
	// BENCHMARK.json were measured on.
	paceRef = 20 * time.Millisecond
)

// paceFactor is how much slower than reference pace the host ran.
func paceFactor(paces []time.Duration) float64 {
	xs := make([]float64, len(paces))
	for i, p := range paces {
		xs[i] = float64(p)
	}
	if len(xs) == 0 {
		return 1
	}
	return quantile(xs, 0.5) / float64(paceRef)
}

var (
	paceBuf = func() []byte {
		b := make([]byte, 1<<18)
		for i := range b {
			b[i] = byte(i * 7)
		}
		return b
	}()
	paceKeys = func() map[uint32]uint32 {
		m := map[uint32]uint32{}
		for i := uint32(0); i < 1<<14; i++ {
			m[i*2654435761] = i
		}
		return m
	}()
	paceSink atomic.Uint64
)

// paceProbe times the reference job on every core at once: hashing a
// buffer larger than the L2 cache, map lookups and an insertion sort.
// Turning the collector off first waits for a cycle in progress to end
// (debug.SetGCPercent), so no mark worker shares the cores with it.
func paceProbe() time.Duration {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h uint64 = 14695981039346656037
			var arr [256]uint32
			for rep := 0; rep < 24; rep++ {
				for _, c := range paceBuf {
					h ^= uint64(c)
					h *= 1099511628211
				}
				for i := uint32(0); i < 1<<14; i++ {
					h += uint64(paceKeys[i*2654435761])
				}
				for i := range arr {
					arr[i] = uint32(h>>7) ^ uint32(i*40503)
				}
				for i := 1; i < len(arr); i++ {
					for j := i; j > 0 && arr[j] < arr[j-1]; j-- {
						arr[j], arr[j-1] = arr[j-1], arr[j]
					}
				}
				h += uint64(arr[0])
			}
			paceSink.Add(h)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// segments is how many consecutive parts of the window are summarised
// on their own; each metric is the median over them, so a burst of
// host noise confined to one part (seconds of stalls the pace probe's
// median does not see) moves none of the figures.
const segments = 3

// estimate summarises the measured rounds at reference pace.
type estimate struct {
	opsPerS            float64 // at reference pace
	rawOpsPerS         float64 // as measured
	pace               float64 // paceFactor of the run
	p50, p99, firstP50 float64 // milliseconds, at reference pace
	requests, answers  int
	rounds             int
	windowS            float64
}

// summarize splits the rounds into segments, scales their timings by
// the run's pace factor (a third of the probes estimates the pace less
// well than all of them), and takes every metric's median over the
// segments.
func summarize(rounds []roundStat, paces []time.Duration) estimate {
	e := estimate{rounds: len(rounds), pace: paceFactor(paces)}
	for _, r := range rounds {
		e.requests += len(r.samples)
		e.answers += r.answers
		e.windowS += r.dur.Seconds()
	}
	if e.windowS > 0 {
		e.rawOpsPerS = float64(e.answers) / e.windowS
	}
	var ops, p50, p99, first []float64
	for s := 0; s < segments; s++ {
		lo, hi := s*len(rounds)/segments, (s+1)*len(rounds)/segments
		if lo == hi {
			continue
		}
		var answers int
		var dur time.Duration
		var total, firsts []float64
		for _, r := range rounds[lo:hi] {
			answers += r.answers
			dur += r.dur
			for _, smp := range r.samples {
				total = append(total, ms(smp.total))
				firsts = append(firsts, ms(smp.first))
			}
		}
		ops = append(ops, float64(answers)/dur.Seconds()*e.pace)
		p50 = append(p50, quantile(total, 0.50)/e.pace)
		p99 = append(p99, quantile(total, 0.99)/e.pace)
		first = append(first, quantile(firsts, 0.50)/e.pace)
	}
	e.opsPerS, e.p50, e.p99, e.firstP50 = quantile(ops, 0.5), quantile(p50, 0.5), quantile(p99, 0.5), quantile(first, 0.5)
	return e
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
