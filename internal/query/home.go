package query

import (
	"fmt"
	"strconv"

	"ctcomm/internal/collective"
	"ctcomm/internal/comm"
	"ctcomm/internal/law"
	"ctcomm/internal/memo"
	"ctcomm/internal/pattern"
)

// Home keys.
//
// A batch fits one word-count law per transfer shape (or collective
// plan) and residue class of the word count, and shares it across
// every cell that needs it. A router that spreads a sweep's cells by
// fingerprint makes each replica fit the same laws again. A home key
// names only what the laws depend on: the machine profile, the shape
// or collective, and the word count modulo P, the lcm of the periods
// of every law such a cell can fit. Cells with equal home keys share
// their laws, so sharding by home key fits each law on one replica,
// and a point query routed the same way lands on the replica that
// cached the equal sweep cell. Congestion and duplex (price) and the
// level (collective, where it only selects the node count) do not
// enter a law key, so they stay out of the home key. Style (price) and
// strategy (collective) pick which laws a cell needs, and so its
// period, but a law does not depend on them: cells that differ only
// there share a home whenever their periods agree.
//
// When P is 0, no law applies and the home key is the fingerprint, so
// engine-bound cells still spread across replicas. Requests that fail
// validation also keep their fingerprint: their replica answers them
// with the same error wherever they land.

// homeShape is the word-count-independent part of a home key: the key
// prefix and the period P (0: no law; use the fingerprint).
type homeShape struct {
	prefix string
	period int64
}

// memoShape returns the shape memoized for k in t, computing and
// storing it on a miss. Finding P probes the memory system's shape
// rules of every transfer involved, which costs tens of microseconds;
// a hit is one read-locked map lookup. The table is bounded
// (memo.Max), so memory stays bounded under any key stream.
func memoShape[K comparable](t *memo.Table[K, homeShape], k K, compute func() homeShape) homeShape {
	if s, ok := t.Get(k); ok {
		return s
	}
	s := compute()
	t.Put(k, s)
	return s
}

// key returns the home key for words; false means no law applies and
// the caller uses the fingerprint.
func (s homeShape) key(words int) (string, bool) {
	if s.period == 0 || words <= 0 || words > law.MaxWords {
		return "", false
	}
	return s.prefix + strconv.FormatInt(int64(words)%s.period, 10), true
}

type priceShapeKey struct{ machine, style, x, y string }

var priceShapes memo.Table[priceShapeKey, homeShape]

// priceHome is the price kind's home key: the machine profile, the
// shape xQy and the word count modulo the style's comm.WordsPeriod.
func priceHome(r PriceRequest) string {
	c := r.Canon()
	s := memoShape(&priceShapes, priceShapeKey{c.Machine, c.Style, c.X, c.Y}, func() homeShape {
		m, err := ResolveMachine(c.Machine)
		if err != nil {
			return homeShape{}
		}
		style, err := comm.ParseStyle(c.Style)
		if err != nil {
			return homeShape{}
		}
		x, errX := pattern.ParseSpec(c.X)
		y, errY := pattern.ParseSpec(c.Y)
		if errX != nil || errY != nil {
			return homeShape{}
		}
		return homeShape{
			prefix: "price|" + m.Name + "|" + x.String() + "Q" + y.String() + "|",
			period: comm.WordsPeriod(m, style, x, y),
		}
	})
	if k, ok := s.key(c.Words); ok {
		return k
	}
	return c.Fingerprint()
}

type collectiveShapeKey struct {
	machine, collective, level string
	nodes, offset              int
	engine                     bool
}

var collectiveShapes memo.Table[collectiveShapeKey, homeShape]

// collectiveHome is the collective kind's home key: the machine
// profile, the operation, its resolved node count and offset, the
// engine flag, and the word count modulo the lcm of every strategy's
// plan period (collective.Plan.WordsPeriod). The period covers all
// strategies, so a one-strategy cell and a comparison of the same
// collective share their home.
func collectiveHome(r CollectiveRequest) string {
	c := r.Canon()
	k := collectiveShapeKey{c.Machine, c.Collective, c.Level, c.Nodes, c.Offset, c.Engine}
	s := memoShape(&collectiveShapes, k, func() homeShape {
		m, err := ResolveMachine(c.Machine)
		if err != nil {
			return homeShape{}
		}
		op, err := collective.ParseOp(c.Collective)
		if err != nil {
			return homeShape{}
		}
		level, err := parseLevel(c.Level, m)
		if err != nil {
			return homeShape{}
		}
		domain := levelDomain(level, m)
		nodes := c.Nodes
		if nodes == 0 {
			nodes = domain
		}
		if nodes < 2 || nodes > domain {
			return homeShape{}
		}
		var period int64
		for _, st := range collective.Strategies() {
			plan, err := collective.New(op, st, nodes, c.Offset)
			if err != nil {
				continue
			}
			period = law.LCM(period, plan.WordsPeriod(m))
		}
		return homeShape{
			prefix: fmt.Sprintf("collective|%s|%s|%d|%d|%t|", m.Name, op, nodes, c.Offset, c.Engine),
			period: period,
		}
	})
	if k, ok := s.key(c.Words); ok {
		return k
	}
	return c.Fingerprint()
}
