package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/law"
	"ctcomm/internal/runstats"
)

// latencyBuckets are the cumulative histogram upper bounds in seconds.
// The serve hot path is microseconds (cache hit) to tens of
// milliseconds (cold plan), with calibration-triggering cold evals
// reaching seconds, so the buckets span 100us .. 10s.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// endpointMetrics tracks one endpoint's traffic: completed requests by
// status code and a fixed-bucket latency histogram.
type endpointMetrics struct {
	mu    sync.Mutex
	codes map[int]int64

	buckets []atomic.Int64 // len(latencyBuckets)+1; the last is +Inf
	count   atomic.Int64
	sumNs   atomic.Int64
}

func (e *endpointMetrics) observe(code int, d time.Duration) {
	e.mu.Lock()
	e.codes[code]++
	e.mu.Unlock()
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, sec)
	e.buckets[i].Add(1)
	e.count.Add(1)
	e.sumNs.Add(int64(d))
}

// metrics is the server-wide observability state, exported both in
// Prometheus text format (GET /metrics) and as a runstats.ServeStats
// JSON dump (GET /v1/stats, ctserved -stats).
type metrics struct {
	start     time.Time
	endpoints map[string]*endpointMetrics // fixed key set, no lock needed

	cacheHits      atomic.Int64
	cacheAliasHits atomic.Int64 // the hits answered by request alias, without decoding
	cacheMisses    atomic.Int64
	cacheCollapsed atomic.Int64

	queueDepth atomic.Int64
	rejected   atomic.Int64
	inflight   atomic.Int64

	sweepCells    atomic.Int64
	sweepCached   atomic.Int64
	sweepAnalytic atomic.Int64
	sweepFailed   atomic.Int64
}

func newMetrics(endpoints []string) *metrics {
	m := &metrics{start: time.Now(), endpoints: map[string]*endpointMetrics{}}
	for _, ep := range endpoints {
		m.endpoints[ep] = &endpointMetrics{
			codes:   map[int]int64{},
			buckets: make([]atomic.Int64, len(latencyBuckets)+1),
		}
	}
	return m
}

func (m *metrics) observe(endpoint string, code int, d time.Duration) {
	if e, ok := m.endpoints[endpoint]; ok {
		e.observe(code, d)
	}
}

// endpointNames returns the tracked endpoints in stable order.
func (m *metrics) endpointNames() []string {
	names := make([]string, 0, len(m.endpoints))
	for ep := range m.endpoints {
		names = append(names, ep)
	}
	sort.Strings(names)
	return names
}

// writePrometheus renders the metrics in Prometheus text exposition
// format (version 0.0.4). It takes the owning server to fold in state
// that lives outside the counter set: cache residency, drain flag,
// warm-start count, persistence-layer stats.
func (m *metrics) writePrometheus(w io.Writer, srv *Server) error {
	cache := srv.cache
	queueCap, workers := srv.cfg.QueueDepth, srv.cfg.Workers
	var b []byte
	appendf := func(format string, args ...interface{}) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}

	appendf("# HELP ctserved_uptime_seconds Time since server start.\n")
	appendf("# TYPE ctserved_uptime_seconds gauge\n")
	appendf("ctserved_uptime_seconds %g\n", time.Since(m.start).Seconds())

	appendf("# HELP ctserved_requests_total Completed requests by endpoint and status code.\n")
	appendf("# TYPE ctserved_requests_total counter\n")
	for _, ep := range m.endpointNames() {
		e := m.endpoints[ep]
		e.mu.Lock()
		codes := make([]int, 0, len(e.codes))
		for c := range e.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			appendf("ctserved_requests_total{endpoint=%q,code=%q} %d\n", ep, strconv.Itoa(c), e.codes[c])
		}
		e.mu.Unlock()
	}

	appendf("# HELP ctserved_request_seconds Request latency by endpoint.\n")
	appendf("# TYPE ctserved_request_seconds histogram\n")
	for _, ep := range m.endpointNames() {
		e := m.endpoints[ep]
		if e.count.Load() == 0 {
			continue
		}
		cum := int64(0)
		for i, le := range latencyBuckets {
			cum += e.buckets[i].Load()
			appendf("ctserved_request_seconds_bucket{endpoint=%q,le=%q} %d\n", ep, formatLE(le), cum)
		}
		cum += e.buckets[len(latencyBuckets)].Load()
		appendf("ctserved_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		appendf("ctserved_request_seconds_sum{endpoint=%q} %g\n", ep, float64(e.sumNs.Load())/1e9)
		appendf("ctserved_request_seconds_count{endpoint=%q} %d\n", ep, e.count.Load())
	}

	appendf("# HELP ctserved_cache_hits_total Result-cache hits.\n")
	appendf("# TYPE ctserved_cache_hits_total counter\n")
	appendf("ctserved_cache_hits_total %d\n", m.cacheHits.Load())
	appendf("# HELP ctserved_cache_alias_hits_total Result-cache hits answered by request alias with stored bytes, without decoding (a subset of hits).\n")
	appendf("# TYPE ctserved_cache_alias_hits_total counter\n")
	appendf("ctserved_cache_alias_hits_total %d\n", m.cacheAliasHits.Load())
	appendf("# HELP ctserved_cache_misses_total Result-cache misses (queries actually executed).\n")
	appendf("# TYPE ctserved_cache_misses_total counter\n")
	appendf("ctserved_cache_misses_total %d\n", m.cacheMisses.Load())
	appendf("# HELP ctserved_cache_collapsed_total Requests collapsed onto an identical in-flight query.\n")
	appendf("# TYPE ctserved_cache_collapsed_total counter\n")
	appendf("ctserved_cache_collapsed_total %d\n", m.cacheCollapsed.Load())
	appendf("# HELP ctserved_cache_entries Result-cache entries resident.\n")
	appendf("# TYPE ctserved_cache_entries gauge\n")
	appendf("ctserved_cache_entries %d\n", cache.len())
	appendf("# HELP ctserved_cache_bytes Approximate resident size of the result cache.\n")
	appendf("# TYPE ctserved_cache_bytes gauge\n")
	appendf("ctserved_cache_bytes %d\n", cache.residentBytes())
	appendf("# HELP ctserved_cache_bytes_capacity Result-cache byte budget (0 = unbounded).\n")
	appendf("# TYPE ctserved_cache_bytes_capacity gauge\n")
	appendf("ctserved_cache_bytes_capacity %d\n", cache.maxBytes)
	appendf("# HELP ctserved_cache_warm_loaded Cache entries loaded from the persistent snapshot at startup.\n")
	appendf("# TYPE ctserved_cache_warm_loaded gauge\n")
	appendf("ctserved_cache_warm_loaded %d\n", srv.warmLoaded.Load())

	appendf("# HELP ctserved_sweep_cells_total Sweep cells streamed (rows emitted, error rows included).\n")
	appendf("# TYPE ctserved_sweep_cells_total counter\n")
	appendf("ctserved_sweep_cells_total %d\n", m.sweepCells.Load())
	appendf("# HELP ctserved_sweep_cells_cached_total Sweep cells answered from the result cache.\n")
	appendf("# TYPE ctserved_sweep_cells_cached_total counter\n")
	appendf("ctserved_sweep_cells_cached_total %d\n", m.sweepCached.Load())
	appendf("# HELP ctserved_sweep_cells_analytic_total Sweep cells answered by closed-form word-count laws (no engine simulation).\n")
	appendf("# TYPE ctserved_sweep_cells_analytic_total counter\n")
	appendf("ctserved_sweep_cells_analytic_total %d\n", m.sweepAnalytic.Load())
	appendf("# HELP ctserved_sweep_cells_failed_total Sweep cells that produced an error row.\n")
	appendf("# TYPE ctserved_sweep_cells_failed_total counter\n")
	appendf("ctserved_sweep_cells_failed_total %d\n", m.sweepFailed.Load())

	appendf("# HELP ctserved_queue_depth Jobs waiting for a worker.\n")
	appendf("# TYPE ctserved_queue_depth gauge\n")
	appendf("ctserved_queue_depth %d\n", m.queueDepth.Load())
	appendf("# HELP ctserved_queue_capacity Admission-control queue capacity.\n")
	appendf("# TYPE ctserved_queue_capacity gauge\n")
	appendf("ctserved_queue_capacity %d\n", queueCap)
	appendf("# HELP ctserved_workers Worker-pool size.\n")
	appendf("# TYPE ctserved_workers gauge\n")
	appendf("ctserved_workers %d\n", workers)
	appendf("# HELP ctserved_rejected_total Requests rejected with 429 by admission control.\n")
	appendf("# TYPE ctserved_rejected_total counter\n")
	appendf("ctserved_rejected_total %d\n", m.rejected.Load())
	appendf("# HELP ctserved_inflight Requests currently being handled.\n")
	appendf("# TYPE ctserved_inflight gauge\n")
	appendf("ctserved_inflight %d\n", m.inflight.Load())
	appendf("# HELP ctserved_draining Whether graceful shutdown has begun (1 = draining).\n")
	appendf("# TYPE ctserved_draining gauge\n")
	appendf("ctserved_draining %d\n", b2i(srv.draining.Load()))

	if ps := srv.persistStats(); ps != nil {
		appendf("# HELP ctserved_persist_appended_total WAL records written by the persistent result cache.\n")
		appendf("# TYPE ctserved_persist_appended_total counter\n")
		appendf("ctserved_persist_appended_total %d\n", ps.Appended)
		appendf("# HELP ctserved_persist_flushes_total WAL flushes by the persistent result cache.\n")
		appendf("# TYPE ctserved_persist_flushes_total counter\n")
		appendf("ctserved_persist_flushes_total %d\n", ps.Flushes)
		appendf("# HELP ctserved_persist_compactions_total Snapshot compactions by the persistent result cache.\n")
		appendf("# TYPE ctserved_persist_compactions_total counter\n")
		appendf("ctserved_persist_compactions_total %d\n", ps.Compactions)
		appendf("# HELP ctserved_persist_dropped_total Entries the persistence layer could not keep (queue or mirror full).\n")
		appendf("# TYPE ctserved_persist_dropped_total counter\n")
		appendf("ctserved_persist_dropped_total %d\n", ps.Dropped)
		appendf("# HELP ctserved_persist_entries Entries resident in the persistence mirror (next snapshot size).\n")
		appendf("# TYPE ctserved_persist_entries gauge\n")
		appendf("ctserved_persist_entries %d\n", ps.Entries)
		appendf("# HELP ctserved_persist_bytes Approximate bytes resident in the persistence mirror.\n")
		appendf("# TYPE ctserved_persist_bytes gauge\n")
		appendf("ctserved_persist_bytes %d\n", ps.Bytes)
	}

	calHits, calMisses := calibrate.CacheStats()
	appendf("# HELP ctserved_calibration_hits_total Calibration rate-table cache hits (process-wide).\n")
	appendf("# TYPE ctserved_calibration_hits_total counter\n")
	appendf("ctserved_calibration_hits_total %d\n", calHits)
	appendf("# HELP ctserved_calibration_misses_total Calibration rate-table measurements (process-wide).\n")
	appendf("# TYPE ctserved_calibration_misses_total counter\n")
	appendf("ctserved_calibration_misses_total %d\n", calMisses)
	appendf("# HELP ctserved_calibration_seconds_total Wall time spent measuring calibration rate tables (process-wide).\n")
	appendf("# TYPE ctserved_calibration_seconds_total counter\n")
	appendf("ctserved_calibration_seconds_total %g\n", calibrate.BuildTime().Seconds())

	appendf("# HELP ctserved_law_fits_total Word-count law fits by law family and outcome (process-wide).\n")
	appendf("# TYPE ctserved_law_fits_total counter\n")
	for _, c := range law.FitCounts() {
		appendf("ctserved_law_fits_total{family=%q,outcome=\"fitted\"} %d\n", c.Family, c.Fitted)
		appendf("ctserved_law_fits_total{family=%q,outcome=\"rejected\"} %d\n", c.Family, c.Rejected)
	}

	_, err := w.Write(b)
	return err
}

// formatLE renders a histogram bound the way Prometheus clients do:
// shortest exact decimal.
func formatLE(le float64) string {
	return strconv.FormatFloat(le, 'g', -1, 64)
}

// snapshot folds the live counters into the JSON dump shape.
func (m *metrics) snapshot(srv *Server) *runstats.ServeStats {
	cache := srv.cache
	queueCap, workers := srv.cfg.QueueDepth, srv.cfg.Workers
	s := &runstats.ServeStats{
		UptimeMs:  float64(time.Since(m.start)) / float64(time.Millisecond),
		Draining:  srv.draining.Load(),
		Endpoints: map[string]runstats.EndpointStats{},
	}
	for ep, e := range m.endpoints {
		e.mu.Lock()
		reqs := make(map[string]int64, len(e.codes))
		for c, n := range e.codes {
			reqs[strconv.Itoa(c)] = n
		}
		e.mu.Unlock()
		es := runstats.EndpointStats{
			Requests: reqs,
			SumMs:    float64(e.sumNs.Load()) / 1e6,
			Count:    e.count.Load(),
		}
		if es.Count > 0 {
			cum := int64(0)
			for i, le := range latencyBuckets {
				cum += e.buckets[i].Load()
				es.LatencyMs = append(es.LatencyMs, runstats.BucketCount{LEMs: le * 1e3, Count: cum})
			}
			cum += e.buckets[len(latencyBuckets)].Load()
			es.LatencyMs = append(es.LatencyMs, runstats.BucketCount{LEMs: -1, Count: cum})
		}
		s.Endpoints[ep] = es
	}
	s.Cache = runstats.CacheStats{
		Hits:         m.cacheHits.Load(),
		AliasHits:    m.cacheAliasHits.Load(),
		Misses:       m.cacheMisses.Load(),
		Collapsed:    m.cacheCollapsed.Load(),
		Entries:      cache.len(),
		Capacity:     cache.cap,
		Bytes:        cache.residentBytes(),
		ByteCapacity: cache.maxBytes,
		WarmLoaded:   srv.warmLoaded.Load(),
	}
	s.Persist = srv.persistStats()
	s.Sweep = runstats.SweepStats{
		Cells:    m.sweepCells.Load(),
		Cached:   m.sweepCached.Load(),
		Analytic: m.sweepAnalytic.Load(),
		Failed:   m.sweepFailed.Load(),
	}
	s.Queue = runstats.QueueStats{
		Depth:    m.queueDepth.Load(),
		Capacity: queueCap,
		Workers:  workers,
		Rejected: m.rejected.Load(),
	}
	s.Calibration.Hits, s.Calibration.Misses = calibrate.CacheStats()
	s.Calibration.Seconds = calibrate.BuildTime().Seconds()
	s.LawFits = map[string]runstats.LawFitStats{}
	for _, c := range law.FitCounts() {
		s.LawFits[c.Family] = runstats.LawFitStats{Fitted: c.Fitted, Rejected: c.Rejected}
	}
	return s
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
