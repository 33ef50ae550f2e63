package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

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
// row is the same pure function of its cell. A replica's row is copied
// as the bytes it sent, with only its leading {"index":N rewritten to
// the global index; it is decoded once, into its provenance flags, for
// the merged summary's counts.
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
		line, head, err := order[g].next(ctx, g)
		if err == nil {
			agg.Count(sweep.Row{Cached: head.Cached, Analytic: head.Analytic, Err: head.Err})
			_, err = w.Write(line)
		} else {
			// The shard is gone: synthesize the error row a replica would
			// have streamed for an unanswerable cell.
			row := sweep.NewRow(cells[g], nil, false, false, fmt.Errorf("router: shard unreachable: %w", err))
			row.Index = g
			agg.Count(row)
			err = enc.Encode(row)
		}
		if err != nil {
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
	cancel   context.CancelFunc // ends the open stream's deadline
	br       *bufio.Reader      // reads body; nil while no stream is open
	line     []byte             // the last line read, newline included
	out      []byte             // the last row handed to the merge
	consumed int                // rows already handed to the merge
	sum      sweep.Summary      // terminal line, once seen
	sawSum   bool
	dead     bool
}

// rowHead is what the merge decodes from a replica's row line: its
// index and provenance. done marks the terminal summary line instead.
type rowHead struct {
	Index    int    `json:"index"`
	Cached   bool   `json:"cached"`
	Analytic bool   `json:"analytic"`
	Err      string `json:"error"`
	done     bool
}

// Every line of a replica's stream opens with its type's first field:
// Row.Index for a row, Summary.Done for the terminal line.
const (
	indexKey = `{"index":`
	doneKey  = `{"done":`
)

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
		sctx, cancel := context.WithTimeout(ctx, streamTimeout)
		resp, err := postJSON(sctx, rep.base+"/v1/cells", body)
		if err != nil {
			cancel()
			sr.rt.markDown(rep)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			cancel()
			continue
		}
		sr.body, sr.cancel = resp.Body, cancel
		if sr.br == nil {
			sr.br = bufio.NewReader(resp.Body)
		} else {
			sr.br.Reset(resp.Body)
		}
		sr.sawSum = false // a fresh stream carries its own summary
		// Skip the already-consumed prefix.
		ok := true
		for i := 0; i < sr.consumed; i++ {
			if head, err := sr.readLine(); err != nil || head.done {
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

// readLine reads the next NDJSON line into sr.line and decodes a row's
// head, or a summary line whole into sr.sum.
func (sr *shardReader) readLine() (rowHead, error) {
	sr.line = sr.line[:0]
	for {
		frag, err := sr.br.ReadSlice('\n')
		sr.line = append(sr.line, frag...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return rowHead{}, err // a line cut short, or the stream's end
		}
	}
	if bytes.HasPrefix(sr.line, []byte(doneKey)) {
		if err := json.Unmarshal(sr.line, &sr.sum); err != nil {
			return rowHead{}, err
		}
		sr.sawSum = true
		return rowHead{done: true}, nil
	}
	var head rowHead
	err := json.Unmarshal(sr.line, &head)
	return head, err
}

// spliceIndex returns line, a row whose index is from, with its
// leading {"index":from rewritten to {"index":to, built in dst's
// storage. ok is false when line does not begin that way.
func spliceIndex(dst, line []byte, from, to int) (out []byte, ok bool) {
	dst = strconv.AppendInt(append(dst[:0], indexKey...), int64(from), 10)
	n := len(dst)
	if !bytes.HasPrefix(line, dst) || n < len(line) && '0' <= line[n] && line[n] <= '9' {
		return dst[:0], false
	}
	dst = strconv.AppendInt(dst[:len(indexKey)], int64(to), 10)
	return append(dst, line[n:]...), true
}

// next returns the shard's next row, as its line with the index
// rewritten to the global index g, and its head. It reconnects on
// stream failure; the line is valid until the next call.
func (sr *shardReader) next(ctx context.Context, g int) ([]byte, rowHead, error) {
	for {
		if sr.dead {
			return nil, rowHead{}, fmt.Errorf("shard stream dead")
		}
		if sr.body == nil {
			if err := sr.open(ctx); err != nil {
				return nil, rowHead{}, err
			}
		}
		head, err := sr.readLine()
		if err == nil && !head.done {
			var ok bool
			if sr.out, ok = spliceIndex(sr.out, sr.line, head.Index, g); !ok {
				err = fmt.Errorf("row %d does not begin with its index", sr.consumed)
			}
		}
		if err != nil {
			// Mid-stream failure: drop the connection, fail over, re-skip.
			sr.close()
			if ctx.Err() != nil {
				sr.dead = true
				return nil, rowHead{}, ctx.Err()
			}
			continue
		}
		if head.done { // summary before all rows arrived: short stream
			if sr.consumed < len(sr.cells) {
				sr.close()
				continue
			}
			return nil, rowHead{}, fmt.Errorf("shard stream ended early")
		}
		sr.consumed++
		return sr.out, head, nil
	}
}

// finish reads the terminal summary (if not already seen) and reports
// its error field; a dead shard reports the synthesized failure.
func (sr *shardReader) finish(ctx context.Context) string {
	if sr.dead {
		return "one or more shards unreachable"
	}
	for !sr.sawSum && sr.body != nil {
		head, err := sr.readLine()
		if err != nil {
			return fmt.Sprintf("shard summary lost: %v", err)
		}
		if !head.done {
			// More rows than cells: a protocol violation worth surfacing.
			return "shard streamed extra rows"
		}
	}
	return sr.sum.Error
}

func (sr *shardReader) close() {
	if sr.body != nil {
		sr.body.Close()
		sr.cancel()
		sr.body, sr.cancel = nil, nil
	}
}
