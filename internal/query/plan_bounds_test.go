package query

import (
	"runtime"
	"testing"

	"ctcomm/internal/collective"
	"ctcomm/internal/distrib"
)

// TestPlanAtInputBoundsAllocatesPerPair: a plan at the input bounds
// (n = MaxPlanElements, p = collective.MaxNodes) keeps state only for
// the processor pairs that exchange data, so its allocations follow the
// pairs — never p², and never the elements.
func TestPlanAtInputBoundsAllocatesPerPair(t *testing.T) {
	if testing.Short() {
		t.Skip("walks a million-element plan")
	}
	n, p := MaxPlanElements, collective.MaxNodes
	src, err := ParseDist("BLOCK", n, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, to := range []string{"CYCLIC(128)", "CYCLIC(64)"} {
		dst, err := ParseDist(to, n, p)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan, err := distrib.Plan(src, dst)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		pairs := uint64(len(plan))
		bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("BLOCK -> %s: %d pairs, %d bytes (%d per pair), %d allocations", to, pairs, bytes, bytes/pairs, mallocs)
		if bytes > 1024*pairs {
			t.Errorf("BLOCK -> %s: %d bytes for %d pairs, want at most 1 KiB a pair", to, bytes, pairs)
		}
		if mallocs > pairs/16 {
			t.Errorf("BLOCK -> %s: %d allocations for %d pairs, want at most one per 16 pairs", to, mallocs, pairs)
		}
	}
}
