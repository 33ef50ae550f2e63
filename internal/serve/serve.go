// Package serve exposes the copy-transfer cost model as a concurrent
// HTTP/JSON service — the consumer-facing subsystem the paper's §2.1
// compiler scenario implies: a scheduler or runtime queries
// communication costs at planning time instead of linking the model.
//
// Endpoints:
//
//	POST /v1/eval        evaluate an expression / price an operation (query.Eval)
//	POST /v1/price       simulate an operation end to end (query.Price)
//	POST /v1/plan        derive + price an HPF redistribution (query.Plan)
//	POST /v1/collective  plan + compare a collective's strategies (query.Collective)
//	POST /v1/fit         fit a machine profile to measurements (query.Fit)
//	POST /v1/sweep       batched grid of queries, streamed as NDJSON (sweep.Run)
//	POST /v1/cells       explicit sweep cells, the router's shard transport
//	GET  /healthz        liveness
//	GET  /metrics        Prometheus text exposition
//	GET  /v1/stats       runstats.ServeStats JSON dump
//
// Production shape:
//
//   - Every answer is cached in a fingerprint-keyed LRU; repeated
//     queries are O(map lookup). A point request that repeats the raw
//     bytes of an earlier hit is answered from the entry's stored
//     response bytes without decoding or encoding (see lruCache).
//     Identical queries in flight collapse
//     onto one execution (singleflight), so a thundering herd on a cold
//     calibrated rate table pays for one calibration.
//   - Execution runs on a bounded worker pool behind a bounded queue.
//     When the queue is full the server sheds load immediately: 429
//     plus Retry-After, never an unbounded backlog.
//   - Each request carries a deadline; a request that cannot be
//     answered in time gets 504, though its computation still completes
//     and warms the cache.
//   - Shutdown drains: the HTTP server stops accepting, in-flight
//     handlers finish (http.Server.Shutdown), then Close stops the
//     workers.
//
// Determinism contract: the "text" field served for /v1/eval and
// /v1/plan is byte-identical to cmd/ctmodel / cmd/hpfplan stdout for
// the same inputs, because all three call the same internal/query
// functions; golden tests on both sides enforce it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ctcomm/internal/query"
	"ctcomm/internal/runstats"
	"ctcomm/internal/serve/persist"
	"ctcomm/internal/sweep"
)

// Config parameterizes a Server. The zero value selects production
// defaults.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; a full
	// queue rejects new work with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the result LRU (default 4096 entries).
	CacheEntries int
	// CacheBytes bounds the approximate resident size of the result LRU
	// (default 64 MiB). Entry counts alone cannot: a few thousand large
	// rendered plan texts or sweep-warmed responses would otherwise grow
	// the cache without bound in practice.
	CacheBytes int64
	// RequestTimeout bounds one request end to end, queueing included
	// (default 30s).
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration

	// PersistDir, when set, enables the disk-persistent result cache:
	// fresh results are appended write-behind to a WAL and compacted
	// into snapshots under this directory, and at startup the snapshot
	// + WAL are loaded back so a restarted replica answers warm with
	// byte-identical text. Empty disables persistence.
	PersistDir string
	// PersistFlush is the WAL flush/fsync interval (default 1s).
	PersistFlush time.Duration
	// PersistCompactEvery triggers a snapshot compaction after this
	// many WAL appends (default 1024).
	PersistCompactEvery int

	// ServiceFloor, when positive, makes every worker job take at least
	// this long. Production leaves it zero; the load-test harness uses
	// it to emulate per-replica service capacity, so throughput scaling
	// across replicas is measurable even on small machines. Cache hits
	// bypass the workers and are unaffected.
	ServiceFloor time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// errOverloaded is returned by submit when the queue is full.
var errOverloaded = errors.New("serve: queue full")

// call is one singleflight execution; waiters block on done.
type call struct {
	done chan struct{}
	val  interface{}
	err  error
}

// job is one queued unit of work: a point query's execute-and-publish
// closure, or one chunk of a sweep.
type job struct {
	run func()
}

// Server is the cost-query service. Create with New, mount Handler,
// and Close after the HTTP server has shut down.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queue   chan job
	workers sync.WaitGroup
	cache   *lruCache
	metrics *metrics

	// persist is the disk layer under the cache (nil when disabled);
	// warmLoaded counts snapshot entries loaded at startup.
	persist    *persist.Store
	warmLoaded atomic.Int64

	// draining is set by the frontend between "stop accepting" and
	// "exit": /healthz reports it so a router stops routing new work
	// here while in-flight requests finish (drain-aware removal).
	draining atomic.Bool

	flightMu sync.Mutex
	flight   map[string]*call

	closeOnce sync.Once

	// testHookJobStart, when set, runs on the worker goroutine before
	// each job executes. Tests use it to hold workers busy and fill the
	// queue deterministically.
	testHookJobStart func()
}

// New starts a Server's worker pool and returns it, panicking if the
// persistence directory cannot be opened — the error-returning form is
// Open. Callers must Close it (after draining HTTP traffic) to stop
// the workers.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("serve.New: %v", err))
	}
	return s
}

// Open starts a Server's worker pool, loading the persistent result
// cache (when Config.PersistDir is set) so the replica answers warm
// from its snapshot. Callers must Close it (after draining HTTP
// traffic) to stop the workers and flush the persistence layer.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		queue:  make(chan job, cfg.QueueDepth),
		cache:  newLRUCache(cfg.CacheEntries, cfg.CacheBytes),
		flight: map[string]*call{},
	}
	var endpoints []string
	for _, k := range query.Kinds() {
		endpoints = append(endpoints, k.Name)
	}
	s.metrics = newMetrics(append(endpoints, "sweep", "cells", "healthz", "metrics", "stats"))
	if cfg.PersistDir != "" {
		st, err := persist.Open(cfg.PersistDir, persist.Options{
			FlushInterval: cfg.PersistFlush,
			CompactEvery:  cfg.PersistCompactEvery,
		})
		if err != nil {
			return nil, err
		}
		loaded, err := st.Load(func(key string, val interface{}) {
			s.cache.add(key, val)
		})
		if err != nil {
			st.Close()
			return nil, err
		}
		s.persist = st
		s.warmLoaded.Store(int64(loaded))
	}
	s.routes()
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// SetDraining flips the drain flag surfaced by /healthz; frontends set
// it when shutdown begins so routers stop sending new work.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// WarmLoaded reports how many cache entries were loaded from the
// persistent snapshot at startup.
func (s *Server) WarmLoaded() int64 { return s.warmLoaded.Load() }

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the worker pool after all queued jobs have run, then
// flushes and closes the persistence layer (final compacted snapshot).
// Call it only once HTTP traffic has drained (http.Server.Shutdown
// returned): submissions after Close panic by design, as sends on a
// closed channel.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.queue)
		s.workers.Wait()
		if s.persist != nil {
			_ = s.persist.Close()
		}
	})
}

func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.metrics.queueDepth.Add(-1)
		if h := s.testHookJobStart; h != nil {
			h()
		}
		if s.cfg.ServiceFloor > 0 {
			time.Sleep(s.cfg.ServiceFloor)
		}
		// Execute even when the submitting request already timed out:
		// the result still warms the cache, and during shutdown the
		// drain semantics are "queued work completes".
		j.run()
	}
}

// publish records a finished leader execution: caches the value (and
// queues it for write-behind persistence), drops the flight entry, and
// releases every collapsed waiter.
func (s *Server) publish(key string, c *call, val interface{}, err error) {
	c.val, c.err = val, err
	if err == nil {
		s.cache.add(key, val)
		if s.persist != nil {
			s.persist.Put(key, val)
		}
	}
	s.flightMu.Lock()
	delete(s.flight, key)
	s.flightMu.Unlock()
	close(c.done)
}

// do answers a query with caching, singleflight collapse and
// admission control. hit is the cache entry the answer came from, nil
// when it came from an execution (this request's or an in-flight
// leader's).
//
// Deadline audit (every wait escapes on the REQUEST'S OWN context, so
// a request whose deadline expires gets its 504 immediately, never the
// leader's timing): a collapsed waiter selects on ctx.Done alongside
// the leader's done channel, and the leader's own wait below does the
// same. TestCollapsedWaiterHonorsOwnDeadline pins the waiter case
// deterministically via the worker test hook.
func (s *Server) do(ctx context.Context, key string, fn func() (interface{}, error)) (val interface{}, hit *lruEntry, err error) {
	if err := ctx.Err(); err != nil {
		// Already past the deadline: fail now rather than returning a
		// stale-looking success from the cache.
		return nil, nil, err
	}
	if e := s.cache.entry(key); e != nil {
		s.metrics.cacheHits.Add(1)
		return e.val, e, nil
	}

	s.flightMu.Lock()
	if c, ok := s.flight[key]; ok {
		// An identical query is already executing or queued: wait for
		// its answer instead of queueing a duplicate — but only as long
		// as this waiter's own deadline allows.
		s.flightMu.Unlock()
		s.metrics.cacheCollapsed.Add(1)
		select {
		case <-c.done:
			return c.val, nil, c.err
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	s.flight[key] = c
	s.flightMu.Unlock()
	s.metrics.cacheMisses.Add(1)

	select {
	case s.queue <- job{run: func() { v, err := fn(); s.publish(key, c, v, err) }}:
		s.metrics.queueDepth.Add(1)
	default:
		// Queue full: shed load now. Fail the flight entry so waiters
		// that raced onto it see the rejection too.
		s.flightMu.Lock()
		delete(s.flight, key)
		s.flightMu.Unlock()
		c.err = errOverloaded
		close(c.done)
		s.metrics.rejected.Add(1)
		return nil, nil, errOverloaded
	}

	select {
	case <-c.done:
		return c.val, nil, c.err
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

// submitChunk queues one sweep chunk on the worker pool. Unlike do's
// point-query submission it blocks instead of shedding: the sweep
// request itself was already admitted, and sweep.Run bounds the chunks
// in flight, so backpressure here is deliberate and deadline-bounded
// by the sweep request's context.
func (s *Server) submitChunk(ctx context.Context, run func()) error {
	select {
	case s.queue <- job{run: run}:
		s.metrics.queueDepth.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sweepCell is the sweep.Runner backed by the server's fingerprint LRU
// and flight map: a cell that an earlier request (point or sweep)
// answered is a cache hit, and point queries can collapse onto a
// cell's in-flight execution. Unlike do, a cell NEVER waits on another
// in-flight leader: the leader's job may be queued behind the very
// worker this cell occupies, so waiting could stall the pool; the rare
// duplicate execution is cheaper than that. Misses evaluate through
// the sweep's shared batch b — bit-identical to the point query by the
// batch contract, so the LRU stays coherent across point and sweep
// paths.
func (s *Server) sweepCell(ctx context.Context, b *query.Batch, c sweep.Cell) (interface{}, bool, bool, error) {
	key := c.Fingerprint()
	if e := s.cache.entry(key); e != nil {
		s.metrics.cacheHits.Add(1)
		return e.val, true, false, nil
	}
	s.flightMu.Lock()
	if _, inFlight := s.flight[key]; inFlight {
		s.flightMu.Unlock()
		val, analytic, err := c.ExecBatch(b)
		return val, false, analytic, err
	}
	cl := &call{done: make(chan struct{})}
	s.flight[key] = cl
	s.flightMu.Unlock()
	s.metrics.cacheMisses.Add(1)

	val, analytic, err := c.ExecBatch(b)
	s.publish(key, cl, val, err)
	return val, false, analytic, err
}

// Snapshot returns the observability counters as a JSON-ready dump.
func (s *Server) Snapshot() *runstats.ServeStats {
	return s.metrics.snapshot(s)
}

// persistStats converts the persistence layer's counters to the JSON
// dump shape; nil when persistence is disabled.
func (s *Server) persistStats() *runstats.PersistStats {
	if s.persist == nil {
		return nil
	}
	st := s.persist.Stats()
	return &runstats.PersistStats{
		Loaded:      st.Loaded,
		Discarded:   st.Discarded,
		Appended:    st.Appended,
		Flushes:     st.Flushes,
		Compactions: st.Compactions,
		Dropped:     st.Dropped,
		Entries:     st.Entries,
		Bytes:       st.Bytes,
	}
}

// String describes the server configuration.
func (s *Server) String() string {
	return fmt.Sprintf("serve.Server{workers: %d, queue: %d, cache: %d, timeout: %s}",
		s.cfg.Workers, s.cfg.QueueDepth, s.cfg.CacheEntries, s.cfg.RequestTimeout)
}
