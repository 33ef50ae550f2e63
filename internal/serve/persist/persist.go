// Package persist is the disk layer under the serve result cache: a
// write-behind append log (WAL) of (fingerprint, response) entries plus
// periodic compacted snapshots, so a restarted replica answers warm
// from byte-identical cached text instead of recomputing.
//
// The determinism contract makes this safe: every response is a pure
// function of its canonical fingerprint, so an entry written by any
// replica at any time is valid forever — there is no invalidation
// problem, only a durability one. The failure model is correspondingly
// simple: anything unreadable is recomputable, so corruption is never
// an error the caller sees. A snapshot with a bad magic, a skewed
// version or a failed checksum is discarded whole; a WAL with a
// truncated or corrupt tail is replayed up to the last good record and
// truncated there. Nothing corrupt is ever served.
//
// On-disk layout (directory):
//
//	snapshot.ctc   compacted full state, atomically replaced (tmp+rename)
//	wal.ctc        entries appended since the last compaction
//
// Both files share one format: an 8-byte magic, a uint32 version, then
// length-prefixed CRC32-checksummed JSON records {"k","t","v"}.
package persist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ctcomm/internal/query"
)

// Magic identifies a ctcomm cache file; Version is the record-format
// version. A reader that finds any other (magic, version) pair discards
// the file: cross-version snapshots are recomputed, never misread.
const (
	Magic   = "CTCCACHE"
	Version = uint32(1)
)

// maxRecordBytes bounds one record; cached responses are rendered
// tables and plan texts, far below this.
const maxRecordBytes = 16 << 20

const (
	snapshotName = "snapshot.ctc"
	walName      = "wal.ctc"
)

// Options parameterizes a Store. The zero value selects production
// defaults.
type Options struct {
	// FlushInterval is how often buffered WAL appends are flushed (and
	// fsync'd) to disk (default 1s).
	FlushInterval time.Duration
	// CompactEvery triggers a snapshot compaction after this many WAL
	// appends (default 1024).
	CompactEvery int
	// MaxEntries bounds the in-memory mirror (and so the snapshot).
	// Once full, new fingerprints are dropped from persistence (counted
	// in Stats.Dropped) — the serve LRU still answers them; they are
	// just cold again after a restart. Default 1<<16.
	MaxEntries int
	// QueueDepth bounds the write-behind channel; a full channel drops
	// the entry (counted) rather than stalling a worker (default 4096).
	QueueDepth int
}

func (o Options) withDefaults() Options {
	if o.FlushInterval <= 0 {
		o.FlushInterval = time.Second
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 1024
	}
	if o.MaxEntries <= 0 {
		o.MaxEntries = 1 << 16
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4096
	}
	return o
}

// Stats reports the store's activity, for /healthz, /v1/stats and the
// shutdown dump.
type Stats struct {
	// Loaded counts entries replayed from disk at Open (snapshot + WAL).
	Loaded int64 `json:"loaded"`
	// Discarded counts entries (or whole files, as their entry count
	// where known) dropped at load for corruption or version skew.
	Discarded int64 `json:"discarded"`
	// Appended counts records written to the WAL since Open.
	Appended int64 `json:"appended"`
	// Flushes counts WAL fsyncs; Compactions counts snapshot rewrites.
	Flushes     int64 `json:"flushes"`
	Compactions int64 `json:"compactions"`
	// Dropped counts entries not persisted (full queue or full mirror).
	Dropped int64 `json:"dropped"`
	// Entries and Bytes describe the resident mirror = next snapshot.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// record is the JSON payload of one persisted entry.
type record struct {
	Key  string          `json:"k"`
	Type string          `json:"t"` // the query kind's name
	Val  json.RawMessage `json:"v"`
}

// encodeValue tags a cacheable response with its query kind's name.
func encodeValue(key string, val interface{}) ([]byte, error) {
	k := query.KindOf(val)
	if k == nil {
		return nil, fmt.Errorf("persist: unsupported value type %T", val)
	}
	v, err := json.Marshal(val)
	if err != nil {
		return nil, err
	}
	return json.Marshal(record{Key: key, Type: k.Name, Val: v})
}

// decodeValue reverses encodeValue. The returned value is the same
// concrete struct type the serve cache stores, so a warm-loaded entry
// renders byte-identically to the execution that produced it.
func decodeValue(payload []byte) (string, interface{}, error) {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return "", nil, err
	}
	k := query.Lookup(rec.Type)
	if k == nil {
		return "", nil, fmt.Errorf("persist: unknown record type %q", rec.Type)
	}
	v, err := k.DecodeAnswer(rec.Val)
	if err != nil {
		return "", nil, err
	}
	return rec.Key, v, nil
}

// entry is one queued write-behind item.
type entry struct {
	key string
	val interface{}
}

// Store is the disk-persistent result cache. Open it, Load it into the
// serving cache, Put every fresh result, and Close on shutdown.
type Store struct {
	dir string
	opt Options

	mu       sync.Mutex
	mirror   map[string][]byte // key -> encoded payload; the next snapshot
	bytes    int64
	wal      *os.File
	walCount int
	dirty    bool // unforced appends since the last flush
	stats    Stats

	ch         chan entry
	done       chan struct{}
	writerDone chan struct{}
	closeOnce  sync.Once
}

// Open opens (creating if needed) the store directory and starts the
// write-behind goroutine. It does not read anything: call Load next.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:        dir,
		opt:        opt,
		mirror:     map[string][]byte{},
		ch:         make(chan entry, opt.QueueDepth),
		done:       make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	wal, err := os.OpenFile(s.path(walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	go s.writer()
	return s, nil
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// Load replays the snapshot and then the WAL, calling apply for every
// valid entry (later entries for the same fingerprint win, matching
// append order). Corruption is handled, never returned: a bad snapshot
// is discarded whole, a bad WAL tail is truncated to the last good
// record. The returned count is the number of distinct fingerprints
// loaded. Call Load once, before any Put.
func (s *Store) Load(apply func(key string, val interface{})) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Snapshot: all-or-nothing. Any read error, bad magic, version skew
	// or failed checksum discards the whole file — a snapshot is a
	// compacted unit, and a partially-applied one would serve an
	// arbitrary subset while claiming to be the full state.
	if payloads, err := readAll(s.path(snapshotName), -1); err == nil {
		staged := make(map[string][]byte, len(payloads))
		ok := true
		for _, p := range payloads {
			key, _, derr := decodeValue(p)
			if derr != nil {
				ok = false
				break
			}
			staged[key] = p
		}
		if ok {
			for key, p := range staged {
				s.mirror[key] = p
				s.bytes += int64(len(p))
			}
		} else {
			s.stats.Discarded += int64(len(payloads))
			_ = os.Remove(s.path(snapshotName))
		}
	} else if !os.IsNotExist(err) {
		s.stats.Discarded++
		_ = os.Remove(s.path(snapshotName))
	}

	// WAL: prefix-valid. Records after the first corruption are
	// unreachable (appends are sequential), so replay the good prefix
	// and truncate the file there.
	goodOff, payloads, _ := readPrefix(s.wal)
	for _, p := range payloads {
		key, _, derr := decodeValue(p)
		if derr != nil {
			s.stats.Discarded++
			continue
		}
		if old, ok := s.mirror[key]; ok {
			s.bytes -= int64(len(old))
		}
		s.mirror[key] = p
		s.bytes += int64(len(p))
		s.walCount++
	}
	if err := s.wal.Truncate(goodOff); err != nil {
		return 0, err
	}
	if _, err := s.wal.Seek(0, io.SeekEnd); err != nil {
		return 0, err
	}

	loaded := 0
	for _, p := range s.mirror {
		key, val, err := decodeValue(p)
		if err != nil {
			s.stats.Discarded++
			continue
		}
		apply(key, val)
		loaded++
	}
	s.stats.Loaded = int64(loaded)
	s.stats.Entries = len(s.mirror)
	s.stats.Bytes = s.bytes
	return loaded, nil
}

// Put queues one fresh result for persistence. It never blocks: a full
// queue (or a full mirror) drops the entry and counts it — the serving
// path must not stall on disk.
func (s *Store) Put(key string, val interface{}) {
	select {
	case s.ch <- entry{key: key, val: val}:
	case <-s.done:
	default:
		s.mu.Lock()
		s.stats.Dropped++
		s.mu.Unlock()
	}
}

// writer is the write-behind goroutine: appends queued entries to the
// WAL, flushes on a timer, compacts when the WAL grows past the
// threshold.
func (s *Store) writer() {
	defer close(s.writerDone)
	ticker := time.NewTicker(s.opt.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case e := <-s.ch:
			s.append(e)
		case <-ticker.C:
			s.mu.Lock()
			s.flushLocked()
			s.mu.Unlock()
		case <-s.done:
			// Drain whatever is already queued, then stop; Close
			// compacts afterwards.
			for {
				select {
				case e := <-s.ch:
					s.append(e)
				default:
					return
				}
			}
		}
	}
}

// append encodes and writes one entry to the WAL (and the mirror).
func (s *Store) append(e entry) {
	payload, err := encodeValue(e.key, e.val)
	if err != nil {
		s.mu.Lock()
		s.stats.Dropped++
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.mirror[e.key]; ok {
		if string(old) == string(payload) {
			return // identical answer already persisted (pure function)
		}
		s.bytes -= int64(len(old))
	} else if len(s.mirror) >= s.opt.MaxEntries {
		s.stats.Dropped++
		return
	}
	if s.walCount == 0 && s.fileSize(s.wal) == 0 {
		if err := writeHeader(s.wal); err != nil {
			s.stats.Dropped++
			return
		}
	}
	if err := writeRecord(s.wal, payload); err != nil {
		s.stats.Dropped++
		return
	}
	s.mirror[e.key] = payload
	s.bytes += int64(len(payload))
	s.walCount++
	s.dirty = true
	s.stats.Appended++
	s.stats.Entries = len(s.mirror)
	s.stats.Bytes = s.bytes
	if s.walCount >= s.opt.CompactEvery {
		s.compactLocked()
	}
}

func (s *Store) fileSize(f *os.File) int64 {
	fi, err := f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// flushLocked fsyncs pending WAL appends.
func (s *Store) flushLocked() {
	if !s.dirty {
		return
	}
	if err := s.wal.Sync(); err == nil {
		s.dirty = false
		s.stats.Flushes++
	}
}

// compactLocked writes the whole mirror as a fresh snapshot
// (tmp + rename, so a crash mid-compaction leaves the old snapshot
// intact) and truncates the WAL.
func (s *Store) compactLocked() {
	tmp := s.path(snapshotName + ".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return
	}
	w := bufio.NewWriter(f)
	ok := writeHeader(w) == nil
	if ok {
		// Deterministic order: equal states produce equal snapshots.
		keys := make([]string, 0, len(s.mirror))
		for k := range s.mirror {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if writeRecord(w, s.mirror[k]) != nil {
				ok = false
				break
			}
		}
	}
	if ok {
		ok = w.Flush() == nil && f.Sync() == nil
	}
	if cerr := f.Close(); cerr != nil {
		ok = false
	}
	if !ok {
		_ = os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, s.path(snapshotName)); err != nil {
		_ = os.Remove(tmp)
		return
	}
	if s.wal.Truncate(0) != nil {
		return
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return
	}
	s.walCount = 0
	s.dirty = false
	s.stats.Compactions++
}

// Flush forces pending appends to disk (tests and the shutdown path).
func (s *Store) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
}

// Stats returns a copy of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close drains the write-behind queue, compacts a final snapshot and
// closes the files. The store must not be used afterwards.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		<-s.writerDone // the writer drains s.ch before exiting
		// Catch entries that raced into the channel after the writer's
		// final drain; nothing else touches the WAL now.
		for {
			select {
			case e := <-s.ch:
				s.append(e)
				continue
			default:
			}
			break
		}
		s.mu.Lock()
		s.compactLocked()
		s.flushLocked()
		err = s.wal.Close()
		s.mu.Unlock()
	})
	return err
}

// --- file format -------------------------------------------------------

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// writeHeader emits the magic and version.
func writeHeader(w io.Writer) error {
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, Version)
}

// writeRecord emits one length-prefixed, checksummed payload.
func writeRecord(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readHeader validates the magic and version.
func readHeader(r io.Reader) error {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("persist: short header: %w", err)
	}
	if string(magic) != Magic {
		return fmt.Errorf("persist: bad magic %q", magic)
	}
	var ver uint32
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return fmt.Errorf("persist: short version: %w", err)
	}
	if ver != Version {
		return fmt.Errorf("persist: version skew: file v%d, reader v%d", ver, Version)
	}
	return nil
}

// readRecord reads one record; io.EOF means a clean end.
func readRecord(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("persist: truncated record header")
		}
		return nil, err // io.EOF: clean end
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > maxRecordBytes {
		return nil, fmt.Errorf("persist: implausible record length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("persist: truncated record body: %w", err)
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("persist: checksum mismatch")
	}
	return payload, nil
}

// readAll reads a whole file strictly: header plus every record must be
// valid, else an error (limit < 0 means unbounded).
func readAll(path string, limit int) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if err := readHeader(r); err != nil {
		return nil, err
	}
	var out [][]byte
	for {
		p, err := readRecord(r)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		if limit >= 0 && len(out) > limit {
			return nil, fmt.Errorf("persist: too many records")
		}
	}
}

// readPrefix reads the valid prefix of an open WAL, returning the byte
// offset just past the last good record plus the payloads read. A bad
// header yields offset 0 (the whole file is rewritten).
func readPrefix(f *os.File) (int64, [][]byte, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, nil, err
	}
	cr := &countingReader{r: bufio.NewReader(f)}
	if err := readHeader(cr); err != nil {
		return 0, nil, nil
	}
	good := cr.n
	var out [][]byte
	for {
		p, err := readRecord(cr)
		if err != nil {
			// io.EOF is the clean end; anything else is a corrupt or
			// truncated tail — either way the prefix ends here.
			return good, out, nil
		}
		out = append(out, p)
		good = cr.n
	}
}

// countingReader counts consumed bytes, so the WAL prefix scan knows
// where the last good record ended.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
