package memsim

// ring is a fixed-capacity FIFO of int64 completion times. The posted
// write queue and the pipelined-load queue have small hardware-bounded
// occupancies, so their rings are allocated once at construction and the
// simulation steady state performs no heap allocation (the previous
// pop-front-by-reslice + append pattern reallocated continuously).
type ring struct {
	buf  []int64
	head int
	n    int
}

func newRing(capacity int) ring {
	if capacity < 1 {
		capacity = 1
	}
	return ring{buf: make([]int64, capacity)}
}

func (r *ring) len() int { return r.n }

func (r *ring) clear() { r.head, r.n = 0, 0 }

// reset empties the ring and zeroes its slots, the state newRing
// returns.
func (r *ring) reset() {
	r.clear()
	clear(r.buf)
}

// pop removes and returns the oldest entry; the ring must be non-empty.
func (r *ring) pop() int64 {
	v := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

func (r *ring) push(v int64) {
	if r.n == len(r.buf) {
		panic("memsim: queue ring overflow")
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// at returns the i-th entry from the front (0 = oldest).
func (r *ring) at(i int) int64 {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return r.buf[j]
}

// shift adds d to every entry (used by the fast-forward jump, which
// translates all pending completion times by whole periods).
func (r *ring) shift(d int64) {
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		r.buf[j] += d
	}
}
