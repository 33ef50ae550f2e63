package sim

import "fmt"

// Resource models a serially-reusable unit (a processor, a DMA engine, a
// network link, the DRAM bank). Work is claimed in time order; a claim
// that arrives while the resource is busy is delayed until the resource
// frees. Resources also account their total busy time so utilization and
// bottleneck analyses can be reported.
type Resource struct {
	freeAt   Time
	busy     Time
	claims   int64
	firstUse Time
	lastUse  Time
	everUsed bool
}

// Claim reserves the resource for dur starting no earlier than at and
// returns the interval [start, end) actually granted. Claims serialize:
// if the resource is busy at at, the claim starts when it frees.
func (r *Resource) Claim(at Time, dur Time) (start, end Time) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative claim duration %v", dur))
	}
	start = at
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	r.busy += dur
	r.claims++
	if !r.everUsed {
		r.firstUse = start
		r.everUsed = true
	}
	if end > r.lastUse {
		r.lastUse = end
	}
	return start, end
}

// ClaimBulk accounts n back-to-back claims whose aggregate effect an
// analytic fast path has already determined: the first claim starts at
// start, the last ends at end, and the claims occupy the resource for
// busy time in total. State afterwards is identical to issuing the n
// claims individually.
func (r *Resource) ClaimBulk(n int64, start, end, busy Time) {
	if n <= 0 {
		return
	}
	r.freeAt = end
	r.busy += busy
	r.claims += n
	if !r.everUsed {
		r.firstUse = start
		r.everUsed = true
	}
	if end > r.lastUse {
		r.lastUse = end
	}
}

// FreeAt returns the time at which the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Busy returns the cumulative busy time of the resource.
func (r *Resource) Busy() Time { return r.busy }

// Claims returns how many times the resource was claimed.
func (r *Resource) Claims() int64 { return r.claims }

// Utilization returns busy time divided by the active span (first use to
// last use), or 0 if the resource was never used.
func (r *Resource) Utilization() float64 {
	if !r.everUsed || r.lastUse == r.firstUse {
		return 0
	}
	return float64(r.busy) / float64(r.lastUse-r.firstUse)
}
