package persist

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/query"
)

// mustEval returns a real evaluated response, so round-trip tests cover
// the exact structs (and rendered Text) the serve cache stores.
func mustEval(t testing.TB, expr string) query.EvalResponse {
	t.Helper()
	resp, err := query.Eval(query.EvalRequest{Machine: "t3d", Expr: expr})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func openStore(t testing.TB, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// load replays a store into a map.
func load(t testing.TB, s *Store) map[string]interface{} {
	t.Helper()
	got := map[string]interface{}{}
	if _, err := s.Load(func(k string, v interface{}) { got[k] = v }); err != nil {
		t.Fatal(err)
	}
	return got
}

// waitAppended polls until the write-behind goroutine has appended n
// records (Put is asynchronous by design).
func waitAppended(t testing.TB, s *Store, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Appended < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("writer appended %d records, want %d", s.Stats().Appended, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRoundTrip is the warm-start contract: save, reload, byte-identical
// answers for all three response types.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if _, err := s.Load(func(string, interface{}) { t.Fatal("fresh store loaded something") }); err != nil {
		t.Fatal(err)
	}

	eval := mustEval(t, "1C64")
	price, err := query.Price(query.PriceRequest{Machine: "t3d", X: "1", Y: "64", Words: 4096})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.Plan(query.PlanRequest{Machine: "t3d", N: 1024, P: 8, Src: "BLOCK", Dst: "CYCLIC"})
	if err != nil {
		t.Fatal(err)
	}
	collReq := query.CollectiveRequest{Machine: "t3d", Collective: "all-to-all", Words: 1024}
	coll, err := query.Collective(collReq)
	if err != nil {
		t.Fatal(err)
	}
	xe6, err := query.ResolveMachine("xe6")
	if err != nil {
		t.Fatal(err)
	}
	fitReq := query.FitRequest{Base: "xe6", Rows: calibrate.Synthesize(xe6, nil)}
	fit, err := query.Fit(fitReq)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]interface{}{
		query.EvalRequest{Machine: "t3d", Expr: "1C64"}.Fingerprint():                                       eval,
		query.PriceRequest{Machine: "t3d", X: "1", Y: "64", Words: 4096}.Fingerprint():                      price,
		query.PlanRequest{Machine: "t3d", N: 1024, P: 8, Src: "BLOCK", Dst: "CYCLIC"}.Canon().Fingerprint(): plan,
		collReq.Fingerprint(): coll,
		fitReq.Fingerprint():  fit,
	}
	for k, v := range want {
		s.Put(k, v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	got := load(t, s2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %#v\nwant %#v", got, want)
	}
	// The rendered text — what the HTTP layer actually serves — must
	// come back byte-identical.
	if got[query.EvalRequest{Machine: "t3d", Expr: "1C64"}.Fingerprint()].(query.EvalResponse).Text != eval.Text {
		t.Fatal("reloaded eval text differs")
	}
	if st := s2.Stats(); st.Loaded != int64(len(want)) || st.Discarded != 0 {
		t.Fatalf("stats = %+v, want %d loaded, 0 discarded", st, len(want))
	}
}

// A WAL with a truncated tail must replay its good prefix and truncate
// the junk, losing only the torn record.
func TestTruncatedWALRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 1 << 20}) // no compaction: keep everything in the WAL
	load(t, s)
	keys := make([]string, 5)
	for i := range keys {
		expr := fmt.Sprintf("%dC1", i+2)
		keys[i] = query.EvalRequest{Machine: "t3d", Expr: expr}.Fingerprint()
		s.Put(keys[i], mustEval(t, expr))
	}
	waitAppended(t, s, len(keys))
	s.Flush()
	// Close would compact into a snapshot; instead stop the store
	// un-gracefully by just reopening the files, as after a crash.
	wal := filepath.Join(dir, walName)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-7); err != nil { // tear the last record
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	got := load(t, s2)
	if len(got) != len(keys)-1 {
		t.Fatalf("recovered %d entries, want %d", len(got), len(keys)-1)
	}
	for _, k := range keys[:len(keys)-1] {
		if _, ok := got[k]; !ok {
			t.Errorf("prefix entry %q lost", k)
		}
	}
	// The torn tail must be gone from disk too: a fresh append starts
	// at the truncation point and the file stays parseable.
	fi2, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() >= fi.Size() {
		t.Fatalf("WAL not truncated: %d -> %d bytes", fi.Size(), fi2.Size())
	}
}

// Flipping a byte mid-WAL must cut the replay at the corruption point.
func TestCorruptWALMidfile(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 1 << 20})
	load(t, s)
	for i := 0; i < 4; i++ {
		expr := fmt.Sprintf("%dC1", i+12)
		s.Put(query.EvalRequest{Machine: "t3d", Expr: expr}.Fingerprint(), mustEval(t, expr))
	}
	waitAppended(t, s, 4)
	s.Flush()

	wal := filepath.Join(dir, walName)
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff // corrupt a byte in the middle
	if err := os.WriteFile(wal, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	got := load(t, s2)
	if len(got) == 0 || len(got) >= 4 {
		t.Fatalf("replayed %d entries after mid-file corruption, want a proper prefix (1..3)", len(got))
	}
}

// A snapshot that fails its checksum is discarded whole — never served
// partially — while a valid WAL alongside it still replays.
func TestCorruptSnapshotDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	load(t, s)
	s.Put(query.EvalRequest{Machine: "t3d", Expr: "3C1"}.Fingerprint(), mustEval(t, "3C1"))
	if err := s.Close(); err != nil { // compacts into snapshot.ctc
		t.Fatal(err)
	}

	snap := filepath.Join(dir, snapshotName)
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x55
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	got := load(t, s2)
	if len(got) != 0 {
		t.Fatalf("served %d entries from a corrupt snapshot, want 0", len(got))
	}
	if st := s2.Stats(); st.Discarded == 0 {
		t.Errorf("stats = %+v, want discarded > 0", st)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Error("corrupt snapshot not removed")
	}
}

// A snapshot from a different format version is rejected cleanly.
func TestVersionSkewRejected(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	load(t, s)
	s.Put(query.EvalRequest{Machine: "t3d", Expr: "5C1"}.Fingerprint(), mustEval(t, "5C1"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(dir, snapshotName)
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[len(Magic):], Version+1)
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if got := load(t, s2); len(got) != 0 {
		t.Fatalf("loaded %d entries across a version skew, want 0", len(got))
	}
}

// Concurrent Puts during reads and compactions must be safe (run under
// -race in CI) and must persist every distinct fingerprint.
func TestConcurrentWriteBehind(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{FlushInterval: time.Millisecond, CompactEvery: 16})
	load(t, s)

	val := mustEval(t, "1C8")
	const goroutines = 8
	const perG = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("eval|t3d|paper|%d-%d", g, i)
				s.Put(key, val)
				if i%8 == 0 {
					_ = s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	got := load(t, s2)
	if len(got) != goroutines*perG {
		t.Fatalf("persisted %d entries, want %d (dropped: %d)",
			len(got), goroutines*perG, s.Stats().Dropped)
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Errorf("stats = %+v, want compactions > 0", st)
	}
}

// The mirror bound drops overflow instead of growing without limit.
func TestMaxEntriesBound(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{MaxEntries: 3, CompactEvery: 1 << 20})
	load(t, s)
	val := mustEval(t, "1C4")
	for i := 0; i < 6; i++ {
		s.Put(fmt.Sprintf("k%d", i), val)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if got := load(t, s2); len(got) != 3 {
		t.Fatalf("persisted %d entries with MaxEntries=3, want 3", len(got))
	}
	if st := s.Stats(); st.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", st.Dropped)
	}
}
