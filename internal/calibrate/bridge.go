package calibrate

import (
	"fmt"

	"ctcomm/internal/machine"
	"ctcomm/internal/model"
	"ctcomm/internal/netsim"
	"ctcomm/internal/once"
)

// ToRateTable converts a measured calibration table plus the machine's
// network configuration into a model rate table, so the copy-transfer
// model can be evaluated against simulator-measured figures exactly as
// the paper evaluates it against live-measured ones.
func (t *Table) ToRateTable(m *machine.Machine) *model.RateTable {
	rt := model.NewRateTable("calibrated/" + t.Machine)
	for key, rate := range t.Rates {
		rt.SetKey(key, rate)
	}
	for _, mode := range []netsim.Mode{netsim.DataOnly, netsim.AddrData} {
		for _, c := range []float64{1, 2, 4} {
			rt.SetNet(mode, c, m.Net.Rate(mode, c))
		}
	}
	return rt
}

// RateTableFor measures machine m (with the default block size) and
// returns the resulting model rate table. This is the one-call bridge
// from "machine profile" to "model parameterization".
func RateTableFor(m *machine.Machine) *model.RateTable {
	return Measure(m, 0).ToRateTable(m)
}

// ToRateTableAt is ToRateTable with the network rates taken from one
// hierarchy tier of m instead of the flat (inter-node) rate, for
// queries that pin communication to a tier. The table name carries the
// tier so listed output distinguishes the parameterization.
func (t *Table) ToRateTableAt(m *machine.Machine, l netsim.Level) *model.RateTable {
	rt := model.NewRateTable("calibrated/" + t.Machine + "@" + l.String())
	for key, rate := range t.Rates {
		rt.SetKey(key, rate)
	}
	for _, mode := range []netsim.Mode{netsim.DataOnly, netsim.AddrData} {
		for _, c := range []float64{1, 2, 4} {
			rt.SetNet(mode, c, m.Net.RateAt(l, mode, c))
		}
	}
	return rt
}

// RateTableForAt is RateTableFor pinned to one hierarchy tier.
func RateTableForAt(m *machine.Machine, l netsim.Level) *model.RateTable {
	return Measure(m, 0).ToRateTableAt(m, l)
}

// Shared model-table memoization: RateTableFor rebuilds a fresh
// model.RateTable (map copy + net-rate reconstruction) on every call,
// which batch evaluation would pay once per cell. SharedRateTable
// returns one immutable table per distinct configuration instead.
var sharedTables once.Map[string, *model.RateTable]

// SharedRateTable is RateTableFor without the per-call table
// reconstruction: the returned table is built at most once per distinct
// (machine configuration, network configuration) and shared. Callers
// MUST treat it as immutable — internal/query.Batch uses it so the
// thousands of cells of one sweep read one table instead of rebuilding
// it per cell. Unlike Measure, a cache hit does not replay simulator
// work into m's Stats; batch callers account calibration once, not per
// cell.
func SharedRateTable(m *machine.Machine) *model.RateTable {
	return sharedTable(m, "", func() *model.RateTable { return RateTableFor(m) })
}

// SharedRateTableAt is SharedRateTable pinned to one hierarchy tier;
// tables are shared per (configuration, tier).
func SharedRateTableAt(m *machine.Machine, l netsim.Level) *model.RateTable {
	return sharedTable(m, "@"+l.String(), func() *model.RateTable { return RateTableForAt(m, l) })
}

func sharedTable(m *machine.Machine, suffix string, build func() *model.RateTable) *model.RateTable {
	// The measurement fingerprint excludes the network configuration
	// (rate tables of basic transfers don't depend on it), but the model
	// table embeds net rates — tier-resolved when pinned — so key on the
	// network, topology and tier too. Hier is a pointer; include its
	// value, not its address.
	key := fingerprint(m, 0) + "|" + fmt.Sprintf("%+v|%+v|%+v%s", m.Net, m.Net.Hier, m.Topo, suffix)
	return sharedTables.Get(key, build)
}
