package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"

	"ctcomm/internal/query"
	"ctcomm/internal/sweep"
)

// The answers byte-compared against the batchless query core: one in
// sampleEvery distinct requests, chosen from the seed, up to maxKept of
// them (the first sent), and rowsPerSweep rows of a kept sweep. The
// batchless answers are slow (no laws), so the cap bounds the time
// checking adds to a run.
const (
	sampleEvery  = 8
	maxKept      = 200
	rowsPerSweep = 2
)

// checker counts every answer and keeps the bodies of a seeded sample
// of distinct requests for verification after the clock stops.
type checker struct {
	in *Inputs

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	kept      map[int32][]byte
}

func newChecker(in *Inputs) *checker {
	return &checker{in: in, kept: map[int32][]byte{}}
}

// sampled reports whether request idx belongs to the checked sample.
func (c *checker) sampled(idx int32) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", c.in.Seed, idx)
	return h.Sum64()%sampleEvery == 0
}

// wants reports whether the body of request idx should be kept: it is
// sampled and not kept yet.
func (c *checker) wants(idx int32) bool {
	if !c.sampled(idx) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.kept[idx]
	return !ok && len(c.kept) < maxKept
}

func (c *checker) record(idx int32, o outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.in.Reqs[idx].Answers()
	c.attempted += n
	if o.err != nil {
		c.fail(fmt.Errorf("request %d: %w", idx, o.err), n)
		return
	}
	if _, ok := c.kept[idx]; o.body != nil && !ok && len(c.kept) < maxKept {
		c.kept[idx] = o.body
	}
}

// fail counts n failed answers; the caller holds mu.
func (c *checker) fail(err error, n int) {
	c.failed += n
	if len(c.errs) < 10 {
		c.errs = append(c.errs, err.Error())
	}
}

// verify byte-compares every kept answer with the batchless query
// answer for the same request. When direct is set (a routed run), each
// kept point answer is also compared with the answer of a replica
// asked directly. It returns the number of answers compared.
func (c *checker) verify(client *http.Client, direct string) int {
	compared := 0
	for idx, body := range c.kept {
		r := &c.in.Reqs[idx]
		var err error
		if r.Cells == 0 {
			err = checkPoint(r, body)
			if err == nil && direct != "" {
				o := send(client, direct, r, true)
				if err = o.err; err == nil && !bytes.Equal(o.body, body) {
					err = fmt.Errorf("routed answer differs from the replica's direct answer")
				}
			}
			compared++
		} else {
			var n int
			n, err = checkSweep(r, body, c.in.Seed+int64(idx))
			compared += n
		}
		if err != nil {
			c.mu.Lock()
			c.fail(fmt.Errorf("request %d (%s): %w", idx, r.Path, err), 1)
			c.mu.Unlock()
		}
	}
	return compared
}

// encodePoint renders v exactly as the server's point handlers do.
func encodePoint(v interface{}) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err) // response structs always marshal
	}
	return b.Bytes()
}

// answer computes the batchless answer to a point request.
func answer(kind string, body []byte) (interface{}, error) {
	dec := func(v interface{}) error {
		d := json.NewDecoder(bytes.NewReader(body))
		d.DisallowUnknownFields()
		return d.Decode(v)
	}
	switch kind {
	case "eval":
		var q query.EvalRequest
		if err := dec(&q); err != nil {
			return nil, err
		}
		return query.Eval(q)
	case "price":
		var q query.PriceRequest
		if err := dec(&q); err != nil {
			return nil, err
		}
		return query.Price(q)
	case "plan":
		var q query.PlanRequest
		if err := dec(&q); err != nil {
			return nil, err
		}
		return query.Plan(q)
	case "collective":
		var q query.CollectiveRequest
		if err := dec(&q); err != nil {
			return nil, err
		}
		return query.Collective(q)
	case "fit":
		var q query.FitRequest
		if err := dec(&q); err != nil {
			return nil, err
		}
		return query.Fit(q)
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

func checkPoint(r *Req, body []byte) error {
	want, err := answer(r.Kind, r.Body)
	if err != nil {
		return fmt.Errorf("batchless %s: %w", r.Kind, err)
	}
	if !bytes.Equal(encodePoint(want), body) {
		return fmt.Errorf("answer differs from the batchless %s answer", r.Kind)
	}
	return nil
}

// checkSweep byte-compares rowsPerSweep seeded rows of a sweep stream
// against the batchless answers to their cells.
func checkSweep(r *Req, body []byte, seed int64) (int, error) {
	var spec sweep.Spec
	if err := json.Unmarshal(r.Body, &spec); err != nil {
		return 0, err
	}
	cells, err := sweep.Expand(spec)
	if err != nil {
		return 0, err
	}
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte{'\n'})
	if len(lines) != len(cells)+1 {
		return 0, fmt.Errorf("%d lines for %d cells", len(lines), len(cells))
	}
	compared := 0
	for k := 0; k < rowsPerSweep && k < len(cells); k++ {
		i := int((seed*7919 + int64(k)*104729) % int64(len(cells)))
		if i < 0 {
			i += len(cells)
		}
		var row sweep.Row
		if err := json.Unmarshal(lines[i], &row); err != nil {
			return compared, fmt.Errorf("row %d: %w", i, err)
		}
		if row.Index != i || row.Err != "" {
			return compared, fmt.Errorf("row %d: index %d, error %q", i, row.Index, row.Err)
		}
		want, err := cells[i].Exec()
		if err != nil {
			return compared, fmt.Errorf("row %d batchless: %w", i, err)
		}
		if !bytes.Equal(mustJSON(rowAnswer(row)), mustJSON(want)) {
			return compared, fmt.Errorf("row %d differs from the batchless answer", i)
		}
		if !bytes.Equal(mustJSON(rowRequest(row)), mustJSON(cellRequest(cells[i]))) {
			return compared, fmt.Errorf("row %d echoes another request", i)
		}
		compared++
	}
	return compared, nil
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func rowAnswer(r sweep.Row) interface{} {
	switch {
	case r.Eval != nil:
		return *r.Eval
	case r.Price != nil:
		return *r.Price
	case r.Plan != nil:
		return *r.Plan
	case r.Collective != nil:
		return *r.Collective
	}
	return nil
}

func rowRequest(r sweep.Row) interface{} {
	switch {
	case r.EvalReq != nil:
		return *r.EvalReq
	case r.PriceReq != nil:
		return *r.PriceReq
	case r.PlanReq != nil:
		return *r.PlanReq
	case r.CollectiveReq != nil:
		return *r.CollectiveReq
	}
	return nil
}

func cellRequest(c sweep.Cell) interface{} {
	switch {
	case c.Eval != nil:
		return *c.Eval
	case c.Price != nil:
		return *c.Price
	case c.Plan != nil:
		return *c.Plan
	case c.Collective != nil:
		return *c.Collective
	}
	return nil
}

// summaryOf decodes the last non-empty line of a sweep stream.
func summaryOf(tail []byte) (sweepSummary, error) {
	tail = bytes.TrimRight(tail, "\n")
	if i := bytes.LastIndexByte(tail, '\n'); i >= 0 {
		tail = tail[i+1:]
	}
	var s sweepSummary
	if err := json.Unmarshal(tail, &s); err != nil {
		return s, fmt.Errorf("sweep summary line: %w", err)
	}
	return s, nil
}
