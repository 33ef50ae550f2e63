package runstats

import (
	"encoding/json"
	"io"
)

// The types below are the serve-subsystem analogue of Summary: the
// machine-readable dump of ctserved's observability counters (request
// counts and latency histograms per endpoint, result-cache and
// calibration-cache effectiveness, queue pressure). internal/serve
// fills one from its live metrics for `GET /v1/stats` and for the
// `ctserved -stats out.json` shutdown dump, mirroring how
// cmd/experiments archives a Summary per run.

// BucketCount is one cumulative latency-histogram bucket: Count
// requests finished in at most LEMs milliseconds. The unbounded bucket
// (+Inf, which JSON cannot carry) is rendered with LEMs = -1.
type BucketCount struct {
	LEMs  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// EndpointStats reports one endpoint's traffic.
type EndpointStats struct {
	// Requests counts completed requests by HTTP status code.
	Requests map[string]int64 `json:"requests"`
	// LatencyMs is the cumulative histogram of request latencies; the
	// last bucket is unbounded and carries LEMs = -1.
	LatencyMs []BucketCount `json:"latency_ms,omitempty"`
	// SumMs and Count parameterize the mean latency.
	SumMs float64 `json:"sum_ms"`
	Count int64   `json:"count"`
}

// CacheStats reports the serve result cache.
type CacheStats struct {
	Hits int64 `json:"hits"`
	// AliasHits counts the hits answered from stored bytes by request
	// alias, without decoding the request: a subset of Hits.
	AliasHits int64 `json:"alias_hits"`
	Misses    int64 `json:"misses"`
	Collapsed int64 `json:"collapsed"` // singleflight waiters served by a leader's miss
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	// Bytes is the approximate resident size of all entries;
	// ByteCapacity is the eviction budget (0 = unbounded).
	Bytes        int64 `json:"bytes"`
	ByteCapacity int64 `json:"byte_capacity"`
	// WarmLoaded counts entries loaded from the persistent snapshot at
	// startup — the warm-start effectiveness denominator.
	WarmLoaded int64 `json:"warm_loaded"`
}

// PersistStats reports the disk-persistent result cache (write-behind
// WAL + compacted snapshots); nil when persistence is disabled.
type PersistStats struct {
	Loaded      int64 `json:"loaded"`      // entries replayed from disk at startup
	Discarded   int64 `json:"discarded"`   // corrupt/version-skewed entries dropped at load
	Appended    int64 `json:"appended"`    // WAL records written since startup
	Flushes     int64 `json:"flushes"`     // WAL fsyncs
	Compactions int64 `json:"compactions"` // snapshot rewrites
	Dropped     int64 `json:"dropped"`     // entries not persisted (queue or mirror full)
	Entries     int   `json:"entries"`     // resident mirror entries (= next snapshot)
	Bytes       int64 `json:"bytes"`       // resident mirror bytes
}

// SweepStats reports /v1/sweep cell traffic across all sweeps.
type SweepStats struct {
	Cells  int64 `json:"cells"`  // rows streamed, error rows included
	Cached int64 `json:"cached"` // cells answered from the result cache
	// Analytic counts cells answered by closed-form word-count laws
	// with no engine simulation (bit-identical to it by contract).
	Analytic int64 `json:"analytic"`
	Failed   int64 `json:"failed"` // cells that produced an error row
}

// QueueStats reports worker-pool admission control.
type QueueStats struct {
	Depth    int64 `json:"depth"`
	Capacity int   `json:"capacity"`
	Workers  int   `json:"workers"`
	Rejected int64 `json:"rejected"` // 429 responses
}

// CalibrationStats reports the process-wide calibration cache
// (calibrate.CacheStats()) and the wall time its misses spent
// measuring rate tables (calibrate.BuildTime()).
type CalibrationStats struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Seconds float64 `json:"seconds"`
}

// LawFitStats counts one law family's fits process-wide
// (law.FitCounts): laws admitted, the part of them admitted from one
// certified probe, and fits rejected.
type LawFitStats struct {
	Fitted    int64 `json:"fitted"`
	Certified int64 `json:"certified"`
	Rejected  int64 `json:"rejected"`
}

// ServeStats is the `-stats`-style JSON dump of a ctserved instance.
type ServeStats struct {
	UptimeMs    float64                  `json:"uptime_ms"`
	Draining    bool                     `json:"draining"`
	Endpoints   map[string]EndpointStats `json:"endpoints"`
	Cache       CacheStats               `json:"cache"`
	Sweep       SweepStats               `json:"sweep"`
	Queue       QueueStats               `json:"queue"`
	Persist     *PersistStats            `json:"persist,omitempty"`
	Calibration CalibrationStats         `json:"calibration"`
	// LawFits maps each law family ("transfer", "collective") to its
	// fit counts.
	LawFits map[string]LawFitStats `json:"law_fits"`
}

// WriteJSON emits the stats as indented JSON with a trailing newline.
func (s *ServeStats) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
