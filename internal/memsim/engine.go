package memsim

import "ctcomm/internal/pattern"

// Engine-side accesses: transfers performed by dedicated hardware — the
// T3D annex/deposit circuitry or the Paragon DMA (line-transfer unit) —
// directly against DRAM, in the background of the processor
// (paper §3.2 fetch-send xF0 and receive-deposit 0Dy, §3.5).
//
// Engines bypass the cache. The T3D deposit engine invalidates cached
// copies of the lines it stores to (paper §3.5.1); EngineWrite models
// that with per-line invalidations, which are free in time but keep the
// simulated cache coherent.

// EngineWrite stores a stream of incoming words to memory on behalf of
// the communication system (a deposit engine handling remote stores).
// Contiguous streams are written as full-line bursts; strided and indexed
// streams cost one single-word page-mode DRAM access each. The stream's
// pattern decides which: engines receive address-data pairs, so no index
// overhead loads occur at the receiver.
func (m *Memory) EngineWrite(st *pattern.Stream) Result {
	return m.engineRun(st, true)
}

// EngineRead fetches a stream of words from memory on behalf of the
// communication system (a DMA engine feeding the network). Contiguous
// streams read full-line bursts; others cost a single-word access each.
func (m *Memory) EngineRead(st *pattern.Stream) Result {
	return m.engineRun(st, false)
}

func (m *Memory) engineRun(st *pattern.Stream, write bool) Result {
	var res Result
	m.dram.freeAt = 0
	m.cert = Cert{}
	startRowHits, startRowMiss := m.dram.rowHits, m.dram.rowMiss

	lineWords := m.cfg.LineWords()
	lineBytes := int64(m.cfg.LineBytes)
	var t int64

	st.Reset()
	if st.Spec().Kind() == pattern.KindContig {
		// Full-line bursts over the footprint.
		for {
			addr, ok := st.NextAddr()
			if !ok {
				break
			}
			n := lineWords - int((addr%lineBytes)/pattern.WordBytes)
			if rem := st.Remaining() + 1; n > rem {
				n = rem
			}
			st.Skip(n - 1)
			t = m.dram.claim(t, addr, n)
			if write {
				m.cache.invalidate(addr)
				res.Stores += int64(n)
			} else {
				res.Loads += int64(n)
			}
		}
		res.PayloadBytes = int64(st.Words()) * pattern.WordBytes
	} else {
		for {
			addr, ok := st.NextAddr()
			if !ok {
				break
			}
			t = m.dram.claimEngine(t, addr)
			if write {
				m.cache.invalidate(addr)
				res.Stores++
			} else {
				res.Loads++
			}
			res.PayloadBytes += pattern.WordBytes
		}
	}
	st.Reset()

	res.ElapsedFs = t
	res.DRAMBusyFs = m.dram.busy
	res.ElapsedNs = toNs(t)
	res.DRAMBusyNs = toNs(m.dram.busy)
	res.RowHits = m.dram.rowHits - startRowHits
	res.RowMisses = m.dram.rowMiss - startRowMiss
	m.dram.busy = 0
	m.cfg.Stats.RecordAccesses(res.Loads+res.Stores, res.ElapsedNs)
	return res
}
