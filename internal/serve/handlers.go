package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ctcomm/internal/query"
	"ctcomm/internal/sweep"
)

// maxBodyBytes bounds a request body; cost queries are tiny.
const maxBodyBytes = 1 << 20

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) routes() {
	for _, k := range query.Kinds() {
		s.mux.HandleFunc("/v1/"+k.Name, s.instrument(k.Name, s.point(k)))
	}
	s.mux.HandleFunc("/v1/sweep", s.instrument("sweep", s.withDeadline(s.handleSweep)))
	s.mux.HandleFunc("/v1/cells", s.instrument("cells", s.withDeadline(s.handleCells)))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.withDeadline(s.handleHealthz)))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.withDeadline(s.handleMetrics)))
	s.mux.HandleFunc("/v1/stats", s.instrument("stats", s.withDeadline(s.handleStats)))
}

// statusWriter records the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// timedHandler is an endpoint handler that is told when its request
// entered the server: its deadline is that instant plus RequestTimeout.
type timedHandler func(w http.ResponseWriter, r *http.Request, start time.Time)

// instrument wraps a handler with in-flight accounting and
// request-count/latency metrics. The handler arms the request's
// deadline itself (withDeadline, or the point handler once a request
// waits for work).
func (s *Server) instrument(endpoint string, h timedHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r, start)
		s.metrics.observe(endpoint, sw.code, time.Since(start))
	}
}

// withDeadline runs h under the request's deadline.
func (s *Server) withDeadline(h http.HandlerFunc) timedHandler {
	return func(w http.ResponseWriter, r *http.Request, start time.Time) {
		ctx, cancel := s.deadline(r, start)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// deadline derives the context of a request that entered the server at
// start: it ends at start plus RequestTimeout, or when r's own does.
func (s *Server) deadline(r *http.Request, start time.Time) (context.Context, context.CancelFunc) {
	return context.WithDeadline(r.Context(), start.Add(s.cfg.RequestTimeout))
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client went away; nothing left to do
}

// writeError maps an error to its HTTP status and JSON envelope.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errOverloaded):
		// Round up and clamp to at least 1: a sub-second RetryAfter must
		// not emit "Retry-After: 0", which clients read as "immediately"
		// and turn into a retry storm against an overloaded server.
		secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "server overloaded, retry later"})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "deadline exceeded"})
	case errors.Is(err, context.Canceled):
		// The client disconnected; the status is for the access log.
		writeJSON(w, 499, errorBody{Error: "client closed request"})
	case errors.Is(err, query.ErrBadRequest):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// decodeBody strictly decodes one bounded JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) error {
	return query.DecodeJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// requirePost rejects non-POST methods.
func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return false
	}
	return true
}

// point answers one point endpoint of kind k. The body is read whole
// into a pooled buffer behind the kind's alias prefix, so a request
// whose exact bytes already hit an entry is answered by one alias
// lookup and one write of the stored body, with no JSON work and no
// deadline: it never waits, so only its own context's end fails it.
// Any other request is strictly decoded and answered through s.do
// under the request deadline, so repeated queries are cache hits keyed
// by the request's fingerprint; a hit records the request's alias and
// stores the encoded body. Every point response Text is byte-identical
// to the matching ctmodel stdout.
func (s *Server) point(k *query.Kind) timedHandler {
	prefix := k.Name + "\n"
	return func(w http.ResponseWriter, r *http.Request, start time.Time) {
		if !requirePost(w, r) {
			return
		}
		buf, readErr := ReadBody(w, r, prefix)
		defer PutBody(buf)
		var alias []byte
		if readErr == nil {
			alias = buf.Bytes()
			if e, body := s.cache.aliased(alias); e != nil {
				if err := r.Context().Err(); err != nil {
					s.writeError(w, err)
					return
				}
				s.metrics.cacheHits.Add(1)
				s.metrics.cacheAliasHits.Add(1)
				s.writeHit(w, e, body)
				return
			}
		}
		// Decode what was read, then the read's own error: the decoder
		// sees the byte stream the bounded body reader would have given it.
		var body io.Reader = bytes.NewReader(buf.Bytes()[len(prefix):])
		if readErr != nil {
			body = io.MultiReader(body, errReader{readErr})
		}
		req, err := k.Decode(body)
		if err != nil {
			s.writeError(w, err)
			return
		}
		ctx, cancel := s.deadline(r, start)
		defer cancel()
		val, e, err := s.do(ctx, req.Fingerprint(), func() (interface{}, error) {
			val, _, err := k.Answer(req, nil)
			return val, err
		})
		switch {
		case err != nil:
			s.writeError(w, err)
		case e == nil:
			writeJSON(w, http.StatusOK, val)
		default:
			s.writeHit(w, e, s.cache.claim(e, alias))
		}
	}
}

// writeHit answers a point hit on cache entry e with its stored body,
// encoding and storing the body first when the entry has none yet.
func (s *Server) writeHit(w http.ResponseWriter, e *lruEntry, body []byte) {
	if body == nil {
		body = s.cache.storeBody(e, encodeOK(e.val))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // the client went away; nothing left to do
}

// encodeOK returns, in an exact-size slice, the body writeJSON writes
// for a 200 answer v: what its json.Encoder writes is v marshaled,
// indented, then a newline.
func encodeOK(v interface{}) []byte {
	compact, err := json.Marshal(v)
	if err != nil {
		return []byte{} // writeJSON writes nothing for a value that fails to encode
	}
	b := bodyPool.Get().(*bytes.Buffer)
	defer PutBody(b)
	_ = json.Indent(b, compact, "", "  ") // Marshal's output is valid JSON
	b.WriteByte('\n')
	return append(make([]byte, 0, b.Len()), b.Bytes()...)
}

// bodyPool recycles the buffers point request bodies are read into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadBody reads r's body, bounded as every ctserved endpoint bounds
// it, into a pooled buffer after prefix. The buffer holds what was
// read even when err is not nil; return it with PutBody once nothing
// reads it any more.
func ReadBody(w http.ResponseWriter, r *http.Request, prefix string) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.WriteString(prefix)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return buf, err
}

// PutBody returns a body buffer to the pool unless it grew past what
// typical point requests need, so one large body does not stay pinned.
func PutBody(b *bytes.Buffer) {
	if b.Cap() <= 64<<10 {
		b.Reset()
		bodyPool.Put(b)
	}
}

// errReader returns err on every read: the tail of a replayed body
// whose read failed.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// handleSweep answers POST /v1/sweep: a batched grid of queries,
// sharded in chunks across the worker pool, streamed back as one
// NDJSON row per cell (in cell-index order) plus a terminal summary
// line. Cells reuse the fingerprint LRU, so overlapping sweeps — and
// sweeps overlapping point queries — are mostly cache hits. A bad cell
// yields an error row, never an aborted sweep; only a malformed spec
// (unknown kind, oversized grid) is rejected whole, with 400, before
// any row is streamed. The request deadline applies to the whole
// sweep: on expiry the stream ends with a summary row carrying the
// error, and during graceful drain an in-flight sweep keeps streaming
// until done (bounded by the drain timeout).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var spec sweep.Spec
	if err := decodeBody(w, r, &spec); err != nil {
		s.writeError(w, err)
		return
	}
	cells, err := sweep.Expand(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.streamCells(w, r, cells)
}

// handleCells answers POST /v1/cells: the explicit-cell form of a
// sweep. The router uses it to ship each replica its fingerprint shard
// of an expanded grid; rows stream back in the given cell order with
// the same NDJSON framing (and partial-failure semantics) as
// /v1/sweep.
func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req sweep.CellsRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := sweep.PrepareCells(req.Cells, 0); err != nil {
		s.writeError(w, err)
		return
	}
	s.streamCells(w, r, req.Cells)
}

// streamCells is the shared NDJSON streaming tail of /v1/sweep and
// /v1/cells: run the cells on the worker pool through the fingerprint
// LRU, emit one row per cell in order plus a terminal summary line.
func (s *Server) streamCells(w http.ResponseWriter, r *http.Request, cells []sweep.Cell) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w) // one compact JSON object per line
	emit := func(row sweep.Row) error {
		s.metrics.sweepCells.Add(1)
		switch {
		case row.Err != "":
			s.metrics.sweepFailed.Add(1)
		case row.Cached:
			s.metrics.sweepCached.Add(1)
		case row.Analytic:
			s.metrics.sweepAnalytic.Add(1)
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	stats, err := sweep.Run(r.Context(), cells, sweep.Options{
		Workers: s.cfg.Workers,
		Runner:  s.sweepCell,
		Submit:  s.submitChunk,
	}, emit)
	sum := sweep.Summary{Done: true, Stats: stats}
	if err != nil {
		sum.Error = err.Error()
	}
	_ = enc.Encode(sum) // best effort: the client may be gone
	if flusher != nil {
		flusher.Flush()
	}
}

// Health is the JSON /healthz body: enough for a router to make
// routing decisions (draining) and for operators to see warm-start
// effectiveness at a glance. Old probes that don't ask for JSON keep
// getting the plain "ok" line.
type Health struct {
	Status string `json:"status"` // "ok" or "draining"
	// Draining reports that shutdown has begun: in-flight work finishes
	// but no new work should be routed here.
	Draining bool `json:"draining"`
	// CacheEntries/CacheBytes describe the resident result cache;
	// WarmLoaded is how many of its entries came from the persistent
	// snapshot at startup.
	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	WarmLoaded   int64 `json:"warm_loaded"`
	// QueueDepth is the number of jobs waiting for a worker.
	QueueDepth int64 `json:"queue_depth"`
}

// health fills the JSON /healthz body from the live counters.
func (s *Server) health() Health {
	h := Health{
		Status:       "ok",
		Draining:     s.draining.Load(),
		CacheEntries: s.cache.len(),
		CacheBytes:   s.cache.residentBytes(),
		WarmLoaded:   s.warmLoaded.Load(),
		QueueDepth:   s.metrics.queueDepth.Load(),
	}
	if h.Draining {
		h.Status = "draining"
	}
	return h
}

// handleHealthz negotiates on Accept: a client asking for
// application/json gets the structured Health body; everything else
// keeps the plain "ok" line old probes expect.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, s.health())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.writePrometheus(w, s)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}
