package main

import (
	"fmt"
	"math"
	"math/bits"
)

// latHist is a log-linear latency histogram: values below 256 ns land
// in exact 1 ns buckets, larger ones in 128 buckets per power of two,
// so a bucket is at most 1/128 of its lower edge wide and a value read
// from it is within 0.8% of every sample in it. Fixed size, no
// allocation per sample.
type latHist struct {
	counts [64 << subBits]uint64
	n      uint64
}

const subBits = 7

func bucketOf(v uint64) int {
	if v < 2<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)<<subBits + int(v>>shift) - 1<<subBits
}

// bucketRange is bucket i's lowest value and width.
func bucketRange(i int) (low, width float64) {
	if i < 2<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	return float64(uint64(i&(1<<subBits-1)+1<<subBits) << shift), float64(uint64(1) << shift)
}

func (h *latHist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in microseconds, interpolated by
// rank within its bucket, and how many samples lie strictly above its
// bucket.
func (h *latHist) quantile(q float64) (us float64, beyond uint64) {
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if cum+c >= rank {
			low, width := bucketRange(i)
			return (low + width*(float64(rank-cum)-0.5)/float64(c)) / 1e3, h.n - cum - c
		}
		cum += c
	}
	return math.NaN(), 0
}

// tailQuantile is quantile with the benchmark's sample-count rule: a
// reported percentile needs at least ten samples beyond it.
func (h *latHist) tailQuantile(name string, q float64) (float64, error) {
	us, beyond := h.quantile(q)
	if beyond < 10 {
		return 0, fmt.Errorf("%s: only %d of %d samples lie beyond the %g quantile; need 10", name, beyond, h.n, q)
	}
	return us, nil
}
