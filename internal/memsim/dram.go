package memsim

import "math/bits"

// dram models a single non-interleaved DRAM bank with open-page (row)
// mode, matching the "simple non-interleaved memory system built from
// DRAM chips" of the T3D node and the very similar Paragon memory
// (paper §3.5). It is a busy-until resource: claims serialize, and each
// claim pays row-hit or row-miss latency depending on the page left open
// by the previous claim, plus per-word bus occupancy.
//
// All times are kept in integer femtoseconds (see the fs helpers in
// memory.go): per-operation costs are rounded to fs once at construction,
// so accumulating them is exact integer arithmetic. That is what makes
// the steady-state fast-forward bit-exact — n periods cost exactly n
// times one period, which would not hold for float64 accumulation.
type dram struct {
	pageBytes    int64
	pageShift    uint // log2(pageBytes); PageBytes is validated a power of two
	rowHitFs     int64
	rowMissFs    int64
	wordFs       int64
	writeOpFs    int64
	engineOpFs   int64
	postedCloses bool

	freeAt   int64 // fs at which the bank is next idle
	openPage int64 // currently open page number, -1 if none
	busy     int64 // cumulative busy fs
	rowHits  int64
	rowMiss  int64
}

// configure applies cfg's DRAM timing; reset must follow before use.
func (d *dram) configure(cfg *Config) {
	d.pageBytes = int64(cfg.PageBytes)
	d.pageShift = uint(bits.TrailingZeros(uint(cfg.PageBytes)))
	d.rowHitFs = toFs(cfg.RowHitNs)
	d.rowMissFs = toFs(cfg.RowMissNs)
	d.wordFs = toFs(cfg.WordNs)
	d.writeOpFs = toFs(cfg.WriteOpNs)
	d.engineOpFs = toFs(cfg.EngineOpNs)
	d.postedCloses = cfg.PostedWriteClosesPage
}

// page maps a byte address to its page number. Addresses are
// non-negative, so the shift equals division by pageBytes.
func (d *dram) page(addr int64) int64 {
	return addr >> d.pageShift
}

// claim reserves the bank for one access of words 8-byte words at byte
// address addr, starting no earlier than at. It returns the completion
// time. The latency component is row-hit or row-miss depending on the
// open page.
func (d *dram) claim(at int64, addr int64, words int) (done int64) {
	_, done = d.claimCW(at, addr, words)
	return done
}

// claimCW is claim with critical-word-first timing: it additionally
// returns dataAt, the time the first requested word is available, while
// the bank stays busy until the full burst completes.
func (d *dram) claimCW(at int64, addr int64, words int) (dataAt, done int64) {
	start := at
	if d.freeAt > start {
		start = d.freeAt
	}
	lat := d.rowMissFs
	p := d.page(addr)
	if p == d.openPage {
		lat = d.rowHitFs
		d.rowHits++
	} else {
		d.rowMiss++
	}
	dur := lat + int64(words)*d.wordFs
	d.freeAt = start + dur
	d.busy += dur
	d.openPage = p
	return start + lat + d.wordFs, d.freeAt
}

// claimPosted reserves the bank for one posted-write drain of words
// 8-byte words, applying the per-transaction write cost and, if
// configured, closing the page.
func (d *dram) claimPosted(at int64, addr int64, words int) (done int64) {
	start := at
	if d.freeAt > start {
		start = d.freeAt
	}
	lat := d.rowMissFs
	p := d.page(addr)
	if !d.postedCloses && p == d.openPage {
		lat = d.rowHitFs
		d.rowHits++
	} else {
		d.rowMiss++
	}
	dur := lat + int64(words)*d.wordFs + d.writeOpFs
	d.freeAt = start + dur
	d.busy += dur
	if d.postedCloses {
		d.openPage = -1
	} else {
		d.openPage = p
	}
	return d.freeAt
}

// claimEngine reserves the bank for a single-word engine (DMA/deposit)
// operation: a full RAS/CAS cycle that closes the page, plus the
// per-operation engine overhead.
func (d *dram) claimEngine(at int64, addr int64) (done int64) {
	start := at
	if d.freeAt > start {
		start = d.freeAt
	}
	d.rowMiss++
	dur := d.rowMissFs + d.wordFs + d.engineOpFs
	d.freeAt = start + dur
	d.busy += dur
	d.openPage = -1
	return d.freeAt
}

// reset idles the bank, closes its page and zeroes its counters.
func (d *dram) reset() {
	d.freeAt = 0
	d.openPage = -1
	d.busy = 0
	d.rowHits = 0
	d.rowMiss = 0
}
