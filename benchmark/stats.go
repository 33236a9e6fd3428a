package main

import "slices"

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, and whether at least minBeyond samples lie beyond it:
// a percentile with fewer than ten samples beyond it is not reported.
const minBeyond = 10

func percentile(sorted []uint32, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(q*float64(n)+0.999999999) - 1 // ceil(q*n) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return float64(sorted[rank]), n-1-rank >= minBeyond
}

// latBuf holds one client's latency samples (ns) for each window, in
// storage allocated before the run so recording never allocates; samples
// past a window's capacity are counted in dropped, not stored.
type latBuf struct {
	win     [][]uint32
	dropped int
}

func newLatBuf(windows, perWindow int) *latBuf {
	b := &latBuf{win: make([][]uint32, windows)}
	for i := range b.win {
		b.win[i] = make([]uint32, 0, perWindow)
	}
	return b
}

func (b *latBuf) record(window int, ns int64) {
	if window < 0 || window >= len(b.win) {
		return
	}
	w := b.win[window]
	if len(w) == cap(w) {
		b.dropped++
		return
	}
	if ns < 0 {
		ns = 0
	}
	if ns > 1<<32-1 {
		ns = 1<<32 - 1
	}
	b.win[window] = append(w, uint32(ns))
}

// windowPercentiles merges the clients' samples window by window and
// returns the median over windows of each requested percentile (in ns),
// the total sample count, and whether every window supported every
// percentile with minBeyond samples beyond it.
func windowPercentiles(bufs []*latBuf, qs ...float64) (med []float64, samples int, supported bool) {
	per := make([][]float64, len(qs))
	supported = true
	for w := range bufs[0].win {
		var all []uint32
		for _, b := range bufs {
			all = append(all, b.win[w]...)
		}
		slices.Sort(all)
		samples += len(all)
		for i, q := range qs {
			v, ok := percentile(all, q)
			supported = supported && ok
			per[i] = append(per[i], v)
		}
	}
	med = make([]float64, len(qs))
	for i := range qs {
		med[i] = median(per[i])
	}
	return med, samples, supported
}
