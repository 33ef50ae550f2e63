package pattern

import "fmt"

// Access is one word-granularity memory reference in an address stream.
type Access struct {
	Addr  int64 // byte address of the referenced 64-bit word
	Write bool  // true for a store, false for a load
	// Overhead marks references that consume memory-system time but do
	// not count as payload, e.g. loads of the index array itself
	// (paper §2.2: "reading the index is considered to be part of the
	// memory access operation and does not count towards ... bandwidth").
	Overhead bool
}

// Stream generates the concrete address sequence for one side (read or
// write) of a transfer. Streams are finite and deterministic, and they
// generate accesses on demand: simulators pull from them with Next or
// NextAddr instead of materializing []Access slices, which keeps the
// simulation hot path allocation-free.
type Stream struct {
	spec       Spec
	base       int64
	words      int
	index      []int64 // word offsets, only for indexed streams
	write      bool    // payload accesses are stores
	noOverhead bool    // suppress index-array overhead loads
	pos        int     // payload words consumed
	// overheadDone records that the index-overhead load preceding the
	// current payload word has already been emitted.
	overheadDone bool
}

// NewStream builds the address stream for spec starting at byte address
// base and covering words payload words. Indexed specs require an index
// slice of word offsets (one per payload word) supplied via WithIndex.
func NewStream(spec Spec, base int64, words int) *Stream {
	return new(Stream).Init(spec, base, words)
}

// Init makes st, in place, the stream NewStream(spec, base, words)
// returns, so a caller reuses one stream header across runs. It returns
// the stream for chaining.
func (st *Stream) Init(spec Spec, base int64, words int) *Stream {
	if words < 0 {
		panic("pattern: negative word count")
	}
	*st = Stream{spec: spec, base: base, words: words}
	return st
}

// WithIndex attaches the index array (word offsets relative to base) used
// by indexed streams. It returns the stream for chaining.
func (st *Stream) WithIndex(index []int64) *Stream {
	st.index = index
	return st
}

// ForWrites marks the stream's payload accesses as stores (overhead index
// loads remain loads). It returns the stream for chaining.
func (st *Stream) ForWrites() *Stream {
	st.write = true
	return st
}

// NoIndexOverhead suppresses the index-array overhead loads of an indexed
// stream. Receive-side streams use this: the scatter addresses arrive
// with the data, so the processor never reads an index array. It returns
// the stream for chaining.
func (st *Stream) NoIndexOverhead() *Stream {
	st.noOverhead = true
	return st
}

// Spec returns the symbolic pattern of the stream.
func (st *Stream) Spec() Spec { return st.spec }

// Base returns the starting byte address of the stream.
func (st *Stream) Base() int64 { return st.base }

// Words returns the number of payload words in the stream.
func (st *Stream) Words() int { return st.words }

// Remaining returns the number of payload words not yet consumed.
func (st *Stream) Remaining() int { return st.words - st.pos }

// Reset rewinds the stream to its first access.
func (st *Stream) Reset() {
	st.pos = 0
	st.overheadDone = false
}

// Skip advances the stream by n payload words without generating their
// accesses (the fast-forward machinery extrapolates their effect).
// Non-positive n is a no-op — in particular it must not rewind the
// position or re-arm an already-emitted index-overhead load — and n
// past the end clamps to the end without overflowing the position.
func (st *Stream) Skip(n int) {
	if n <= 0 {
		return
	}
	if rem := st.words - st.pos; n >= rem {
		st.pos = st.words
	} else {
		st.pos += n
	}
	st.overheadDone = false
}

// addr returns the byte address of payload word i.
func (st *Stream) addr(i int) int64 {
	switch st.spec.kind {
	case KindFixed:
		return st.base
	case KindContig:
		return st.base + int64(i)*WordBytes
	case KindStrided:
		b := st.spec.Block()
		run := int64(i / b)
		within := int64(i % b)
		return st.base + (run*int64(st.spec.stride)+within)*WordBytes
	case KindIndexed:
		return st.base + st.index[i]*WordBytes
	default:
		panic(fmt.Sprintf("pattern: unknown kind %v", st.spec.kind))
	}
}

// Peek returns the next access without consuming it. For indexed streams
// the overhead loads of the index array are interleaved directly: each
// even payload word is preceded by one index-word load (32-bit entries,
// two per 64-bit word), unless NoIndexOverhead was set.
func (st *Stream) Peek() (Access, bool) {
	if st.pos >= st.words {
		return Access{}, false
	}
	if st.spec.kind == KindIndexed && st.index == nil {
		panic("pattern: indexed stream without index array")
	}
	if st.overheadPending() {
		return Access{Addr: IndexBase + int64(st.pos/2)*WordBytes, Overhead: true}, true
	}
	return Access{Addr: st.addr(st.pos), Write: st.write}, true
}

// Next returns the next access of the stream, or ok=false when the
// stream is exhausted. See Peek for the overhead-interleaving contract.
func (st *Stream) Next() (Access, bool) {
	a, ok := st.Peek()
	if !ok {
		return a, false
	}
	if a.Overhead {
		st.overheadDone = true
	} else {
		st.pos++
		st.overheadDone = false
	}
	return a, true
}

func (st *Stream) overheadPending() bool {
	return st.spec.kind == KindIndexed && !st.noOverhead && st.pos%2 == 0 && !st.overheadDone
}

// NextAddr returns the byte address of the next payload word, skipping
// overhead interleaving entirely, or ok=false when the stream is
// exhausted. Engines use this: they receive address-data pairs, so no
// index overhead loads occur. Fixed streams repeatedly return the base
// (port) address.
func (st *Stream) NextAddr() (addr int64, ok bool) {
	if st.pos >= st.words {
		return 0, false
	}
	if st.spec.kind == KindIndexed && st.index == nil {
		panic("pattern: indexed stream without index array")
	}
	a := st.addr(st.pos)
	st.pos++
	st.overheadDone = false
	return a, true
}

// Addresses materializes the whole stream as a slice of byte addresses.
func (st *Stream) Addresses() []int64 {
	out := make([]int64, 0, st.words)
	st.Reset()
	for {
		a, ok := st.NextAddr()
		if !ok {
			break
		}
		out = append(out, a)
	}
	st.Reset()
	return out
}

// Footprint returns the extent in bytes from the lowest to one past the
// highest referenced word, or 0 for empty and fixed streams. It is
// computed in closed form for regular patterns and without materializing
// the stream for indexed ones.
func (st *Stream) Footprint() int64 {
	if st.words == 0 || st.spec.kind == KindFixed {
		return 0
	}
	switch st.spec.kind {
	case KindContig, KindStrided:
		// Regular streams are monotone: first access is the minimum,
		// last access the maximum.
		return st.addr(st.words-1) - st.base + WordBytes
	default:
		if st.index == nil {
			panic("pattern: indexed stream without index array")
		}
		lo, hi := int64(1<<62), int64(-1<<62)
		for _, off := range st.index[:st.words] {
			if off < lo {
				lo = off
			}
			if off > hi {
				hi = off
			}
		}
		return (hi - lo + 1) * WordBytes
	}
}

// IndexBase is the byte address at which generated index arrays are
// assumed to live; the simulators charge contiguous overhead loads from
// this region for indexed streams.
const IndexBase = 1 << 40

// Accesses expands the stream into explicit word accesses, interleaving
// the overhead loads of the index array for indexed streams exactly as
// Next emits them. It is retained for tests and trace tooling; the
// simulation hot path consumes streams directly.
func (st *Stream) Accesses(write bool) []Access {
	out := make([]Access, 0, st.words*2)
	saved := st.write
	st.write = write
	st.Reset()
	for {
		a, ok := st.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	st.write = saved
	st.Reset()
	return out
}
