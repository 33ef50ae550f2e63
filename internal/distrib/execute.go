package distrib

import (
	"fmt"
	"slices"

	"ctcomm/internal/apps"
	"ctcomm/internal/comm"
	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
)

// ExecuteOptions controls the simulated timing of a redistribution.
type ExecuteOptions struct {
	// Style selects the communication implementation; chaining falls
	// back to buffer packing per transfer when the machine cannot chain
	// the destination pattern.
	Style comm.Style
	// BarrierNs is the synchronization cost bracketing the whole
	// redistribution; zero selects apps.DefaultBarrierNs, negative
	// disables.
	BarrierNs float64
}

// Execute times a redistribution plan on the simulated machine at the
// congestion of the plan's own traffic (Congestion). All nodes run
// concurrently; each node's outgoing transfers serialize. The report
// carries the average per-node payload and the slowest node's elapsed
// time — the convention of the paper's per-node rates. Every transfer
// must come from a planner (Plan, Plan2D, TransposePlan): one built by
// hand carries no words, and Execute rejects it.
func Execute(m *machine.Machine, plan []Transfer, opt ExecuteOptions) (apps.CommReport, error) {
	var rep apps.CommReport
	if opt.BarrierNs == 0 {
		opt.BarrierNs = apps.DefaultBarrierNs
	}
	if opt.BarrierNs < 0 {
		opt.BarrierNs = 0
	}
	if len(plan) == 0 {
		rep.ElapsedNs = opt.BarrierNs
		return rep, nil
	}

	congestion := Congestion(m, plan)
	perNodeNs := make(map[int]float64)
	var totalBytes int64
	active := make(map[int]bool)
	// Regular redistributions produce many identically-shaped transfers
	// (same patterns, same word count); simulate each shape once.
	type shape struct {
		src, dst pattern.Spec
		words    int
	}
	cache := make(map[shape]comm.Result)
	for _, t := range plan {
		if t.Words() == 0 {
			return rep, fmt.Errorf("distrib: transfer %d->%d moves no words (transfers come from the planners)", t.From, t.To)
		}
		active[t.From] = true
		active[t.To] = true
		sh := shape{src: t.Src, dst: t.Dst, words: t.Words()}
		res, ok := cache[sh]
		if !ok {
			o := comm.Options{Words: t.Words(), Congestion: congestion, Duplex: true}
			var err error
			res, err = comm.Run(m, opt.Style, t.Src, t.Dst, o)
			if err != nil && opt.Style == comm.Chained {
				// The machine cannot chain this destination pattern; the
				// compiler would emit buffer packing for this transfer.
				res, err = comm.Run(m, comm.BufferPacking, t.Src, t.Dst, o)
			}
			if err != nil {
				return rep, err
			}
			cache[sh] = res
		}
		perNodeNs[t.From] += res.ElapsedNs
		totalBytes += res.PayloadBytes
		rep.Messages++
	}
	slowest := 0.0
	for _, ns := range perNodeNs {
		if ns > slowest {
			slowest = ns
		}
	}
	n := len(active)
	if n == 0 {
		n = 1
	}
	rep.ElapsedNs = slowest + opt.BarrierNs
	rep.PayloadBytes = totalBytes / int64(n)
	return rep, nil
}

// Congestion returns the congestion factor of plan's traffic on m's
// topology. Each node's outgoing transfers serialize, and a
// communication-generating compiler orders them by shift distance so
// that at any instant the network sees one cyclic-shift permutation —
// the scheduled-AAPC insight of §4.3. The effective congestion is
// therefore the worst shift phase's, not the naive all-at-once figure.
// The phases are counted one after another in one netsim.LinkLoad.
func Congestion(m *machine.Machine, plan []Transfer) float64 {
	nodes, n := m.Nodes(), len(plan)
	keys := make([]int, n) // shift*n + plan index: sorted, the phases group
	for i, t := range plan {
		keys[i] = ((t.To%nodes-t.From%nodes)%nodes+nodes)%nodes*n + i
	}
	slices.Sort(keys)
	load := netsim.NewLinkLoad(m.Topo, m.Net.NodesPerPort)
	congestion := 1.0
	for j, k := range keys {
		if j > 0 && k/n != keys[j-1]/n {
			congestion = max(congestion, load.Congestion())
			load.Reset()
		}
		load.Add(plan[k%n].From%nodes, plan[k%n].To%nodes)
	}
	return max(congestion, load.Congestion())
}
