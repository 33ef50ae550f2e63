package query

import (
	"strings"
	"sync"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/collective"
	"ctcomm/internal/comm"
	"ctcomm/internal/machine"
	"ctcomm/internal/model"
	"ctcomm/internal/netsim"
)

// Batch is the shared evaluation context for one sweep (or any other
// batch of point queries). The batchless entry points re-resolve the
// machine, rebuild the rate table and simulate every memory stage from
// scratch on each call — fine for one query, quadratic waste for a
// grid. A Batch hoists all of that to once-per-batch: machines resolve
// once per name (aliases of one profile share a single *Machine, so
// the comm session's pointer-keyed state is shared too), rate tables
// convert once per (rates, machine), and price queries run through one
// comm.Session, which memoizes basic-transfer stages across styles,
// congestion levels and duplex settings and answers the element-count
// axis by bitwise-verified analytic word-count laws instead of
// re-running the engine. Collective queries run through one
// collective.Session the same way: plans and their congestion factors
// resolve once, and the words axis is answered by bitwise-verified
// affine makespan laws instead of re-simulating every phase.
//
// The contract: a Batch changes cost, never answers. Every response —
// including its rendered Text — is byte-identical to the batchless
// Eval/Price/Plan for the same request. TestBatchBitIdentical and the
// sweep-level differential tests enforce this.
//
// A Batch is safe for concurrent use by many sweep workers.
type Batch struct {
	mu sync.Mutex
	// byName memoizes resolution per requested spelling; byProfile
	// dedupes spellings onto one *Machine per profile name.
	byName    map[string]*machine.Machine
	byProfile map[string]*machine.Machine
	tables    map[tableKey]*model.RateTable
	session   *comm.Session
	coll      *collective.Session
}

type tableKey struct {
	rates string
	m     *machine.Machine // pointer identity: one *Machine per profile per batch
	level string           // canonical tier spelling; "" = default view
}

// NewBatch returns an empty batch context.
func NewBatch() *Batch {
	return &Batch{
		byName:    map[string]*machine.Machine{},
		byProfile: map[string]*machine.Machine{},
		tables:    map[tableKey]*model.RateTable{},
		session:   comm.NewSession(),
		coll:      collective.NewSession(),
	}
}

// Machine is ResolveMachine memoized on the batch: each profile is
// resolved at most once, and every accepted spelling of it returns the
// same pointer. A nil batch (the point path) resolves directly.
func (b *Batch) Machine(name string) (*machine.Machine, error) {
	if b == nil {
		return ResolveMachine(name)
	}
	key := strings.ToLower(strings.TrimSpace(name))
	b.mu.Lock()
	defer b.mu.Unlock()
	if m, ok := b.byName[key]; ok {
		return m, nil
	}
	m, err := ResolveMachine(name)
	if err != nil {
		// Resolution errors are not memoized: they are cheap and must
		// keep the exact ResolveMachine text.
		return nil, err
	}
	if prev, ok := b.byProfile[m.Name]; ok {
		m = prev
	} else {
		b.byProfile[m.Name] = m
	}
	b.byName[key] = m
	return m, nil
}

// table is rateTable memoized on the batch. The calibrated branch uses
// calibrate.SharedRateTable, so the conversion (and on a cache miss,
// the measurement) happens once per configuration process-wide instead
// of once per cell. A nil batch (the point path) builds the table
// afresh.
func (b *Batch) table(rates string, m *machine.Machine, level *netsim.Level) (*model.RateTable, error) {
	if b == nil {
		return rateTable(rates, m, level)
	}
	k := tableKey{rates: rates, m: m}
	if level != nil {
		k.level = level.String()
	}
	b.mu.Lock()
	rt, ok := b.tables[k]
	b.mu.Unlock()
	if ok {
		return rt, nil
	}
	var err error
	switch {
	case rates == "calibrated" && level != nil:
		rt = calibrate.SharedRateTableAt(m, *level)
	case rates == "calibrated":
		rt = calibrate.SharedRateTable(m)
	default:
		rt, err = rateTable(rates, m, level)
		if err != nil {
			return nil, err
		}
	}
	b.mu.Lock()
	b.tables[k] = rt
	b.mu.Unlock()
	return rt, nil
}
