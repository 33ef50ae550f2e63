package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"ctcomm/internal/query"
	"ctcomm/internal/sweep"
)

// handleSweep fans one sweep out across the fleet: the grid expands
// locally (so validation and cell order are the router's, identical to
// a single replica's), each cell routes to its home key's replica (so
// the cells that need one word-count law share one replica's batch),
// shards ship as explicit /v1/cells requests, and the shard
// streams re-merge into one NDJSON stream in global cell order — byte
// for byte what a single ctserved would have streamed, because each
// row is the same pure function of its cell and the encoder is the
// same.
//
// Failure semantics compose with the sweep's own: a shard whose stream
// dies mid-flight is retried on the next ring successor (skipping rows
// already merged — they are deterministic, so the re-stream matches);
// a shard with no replicas left yields error rows for its remaining
// cells, never an aborted sweep.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	var spec sweep.Spec
	if err := query.DecodeJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	cells, err := sweep.Expand(spec)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	// Shard by home replica. Failover candidates are computed per shard
	// from the FIRST cell's ring walk: all cells in a shard share a home
	// by construction, and successor order only matters on failure.
	shards := map[*replica]*shardReader{}
	order := make([]*shardReader, len(cells)) // global index -> owning shard
	for i := range cells {
		cands := rt.pick(cells[i].Home())
		if len(cands) == 0 {
			rt.stats.rejected.Add(1)
			writeJSON(w, http.StatusBadGateway, errorBody{Error: "router: no routable replicas"})
			return
		}
		sr, ok := shards[cands[0]]
		if !ok {
			sr = &shardReader{rt: rt, cands: cands}
			shards[cands[0]] = sr
		}
		sr.cells = append(sr.cells, cells[i])
		order[i] = sr
	}
	rt.stats.sweeps.Add(1)
	rt.stats.cells.Add(int64(len(cells)))
	for home, sr := range shards {
		home.cells.Add(int64(len(sr.cells)))
	}

	// Open every shard stream up front so all replicas compute in
	// parallel while the merge drains them in global order.
	ctx := r.Context()
	for _, sr := range shards {
		_ = sr.open(ctx) // a failed shard surfaces as error rows in the merge
	}
	defer func() {
		for _, sr := range shards {
			sr.close()
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	agg := sweep.Summary{Done: true}
	for g := 0; g < len(cells); g++ {
		sr := order[g]
		row, err := sr.next(ctx)
		if err != nil {
			// The shard is gone: synthesize the error row a replica would
			// have streamed for an unanswerable cell.
			row = sweep.NewRow(cells[g], nil, false, false, fmt.Errorf("router: shard unreachable: %w", err))
		}
		row.Index = g // local shard position -> global cell order
		agg.Count(row)
		if err := enc.Encode(row); err != nil {
			return // client gone
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, sr := range shards {
		if e := sr.finish(ctx); e != "" && agg.Error == "" {
			agg.Error = e
		}
	}
	_ = enc.Encode(agg)
	if flusher != nil {
		flusher.Flush()
	}
}

// shardReader streams one replica's shard of a sweep, failing over to
// ring successors mid-stream when the current replica dies.
type shardReader struct {
	rt    *Router
	cells []sweep.Cell // global-indexed; shipped order = stream order
	cands []*replica   // home first, then successors

	cand     int // next candidate to try
	body     io.ReadCloser
	dec      *json.Decoder
	consumed int           // rows already handed to the merge
	sum      sweep.Summary // terminal line, once seen
	sawSum   bool
	dead     bool
}

// open connects to the next candidate replica and positions the stream
// past the rows the merge already consumed (the re-stream is
// deterministic, so the skipped prefix is identical to what was
// already emitted).
func (sr *shardReader) open(ctx context.Context) error {
	for sr.cand < len(sr.cands) {
		rep := sr.cands[sr.cand]
		sr.cand++
		if sr.cand > 1 {
			sr.rt.stats.shardHops.Add(1)
		}
		body, err := json.Marshal(sweep.CellsRequest{Cells: sr.cells})
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.base+"/v1/cells", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := sr.rt.cfg.Client.Do(req)
		if err != nil {
			sr.rt.markDown(rep)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			continue
		}
		sr.body = resp.Body
		sr.dec = json.NewDecoder(resp.Body)
		sr.sawSum = false // a fresh stream carries its own summary
		// Skip the already-consumed prefix.
		ok := true
		for i := 0; i < sr.consumed; i++ {
			if _, err := sr.rawLine(); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		sr.close()
	}
	sr.dead = true
	return fmt.Errorf("no replicas left for shard (%d tried)", len(sr.cands))
}

// rawLine decodes the next NDJSON value, distinguishing a row from the
// terminal summary. It returns nil when the line was the summary.
func (sr *shardReader) rawLine() (*sweep.Row, error) {
	var raw json.RawMessage
	if err := sr.dec.Decode(&raw); err != nil {
		return nil, err
	}
	var probe struct {
		Done bool `json:"done"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, err
	}
	if probe.Done {
		if err := json.Unmarshal(raw, &sr.sum); err != nil {
			return nil, err
		}
		sr.sawSum = true
		return nil, nil
	}
	var row sweep.Row
	if err := json.Unmarshal(raw, &row); err != nil {
		return nil, err
	}
	return &row, nil
}

// next returns the shard's next row, reconnecting on stream failure.
func (sr *shardReader) next(ctx context.Context) (sweep.Row, error) {
	for {
		if sr.dead {
			return sweep.Row{}, fmt.Errorf("shard stream dead")
		}
		if sr.dec == nil {
			if err := sr.open(ctx); err != nil {
				return sweep.Row{}, err
			}
		}
		row, err := sr.rawLine()
		if err != nil {
			// Mid-stream failure: drop the connection, fail over, re-skip.
			sr.close()
			if ctx.Err() != nil {
				sr.dead = true
				return sweep.Row{}, ctx.Err()
			}
			continue
		}
		if row == nil { // summary before all rows arrived: short stream
			if sr.consumed < len(sr.cells) {
				sr.close()
				continue
			}
			return sweep.Row{}, fmt.Errorf("shard stream ended early")
		}
		sr.consumed++
		return *row, nil
	}
}

// finish reads the terminal summary (if not already seen) and reports
// its error field; a dead shard reports the synthesized failure.
func (sr *shardReader) finish(ctx context.Context) string {
	if sr.dead {
		return "one or more shards unreachable"
	}
	for !sr.sawSum && sr.dec != nil {
		row, err := sr.rawLine()
		if err != nil {
			return fmt.Sprintf("shard summary lost: %v", err)
		}
		if row != nil {
			// More rows than cells: a protocol violation worth surfacing.
			return "shard streamed extra rows"
		}
	}
	return sr.sum.Error
}

func (sr *shardReader) close() {
	if sr.body != nil {
		sr.body.Close()
		sr.body = nil
		sr.dec = nil
	}
}
