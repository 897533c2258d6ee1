package congest

import "math/bits"

// This file is the dense-bitset frontier layer behind shard.frontier: the
// live set of a shard's contiguous vertex range [lo, hi), one bit per
// vertex, in the Ligra dense-active-set style. Word wi of the frontier
// covers vertices [((lo>>6)+wi)<<6, ((lo>>6)+wi+1)<<6) — word boundaries
// are global (vertex v always lives at bit v&63 of word v>>6 minus the
// shard's base), so the range's partial edge words are masked.
//
// The bitset only loses bits within a run: sweepShard clears them as nodes
// halt and the fate scan as nodes crash for good, and nothing ever
// resurrects a cleared bit.
// liveCount mirrors the popcount so the empty-shard skip is O(1).

// frontierWords returns the word count a frontier over [lo, hi) needs.
func frontierWords(lo, hi int) int {
	if hi <= lo {
		return 0
	}
	return (hi-1)>>6 - lo>>6 + 1
}

// resetFrontier points the shard at [lo, hi) with every vertex live,
// masking the partial edge words.
func (sh *shard) resetFrontier(lo, hi int) {
	sh.lo, sh.hi = lo, hi
	sh.frontier = make([]uint64, frontierWords(lo, hi))
	base := lo >> 6
	count := 0
	for wi := range sh.frontier {
		vbase := (base + wi) << 6
		wd := ^uint64(0)
		if vbase < lo {
			wd &= ^uint64(0) << uint(lo-vbase)
		}
		if vbase+64 > hi {
			wd &= ^uint64(0) >> uint(vbase+64-hi)
		}
		sh.frontier[wi] = wd
		count += bits.OnesCount64(wd)
	}
	sh.liveCount = count
}

// retire clears vertex v from the frontier; a no-op when v is not live.
//
//idspace:internal v
func (sh *shard) retire(v int) {
	wi, bit := v>>6-sh.lo>>6, uint64(1)<<uint(v&63)
	if sh.frontier[wi]&bit != 0 {
		sh.frontier[wi] &^= bit
		sh.liveCount--
	}
}
