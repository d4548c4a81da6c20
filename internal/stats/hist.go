// Package stats is the flight-recorder plane: bounded record rings and a
// profile aggregator that implement sim.Metrics without allocating in steady
// state, plus fixed-footprint histograms for latency percentiles. Everything
// here is deterministic — quantiles come from integer bucket walks, dump
// orders are sorted — so metrics output diffs byte-identical across runs and
// across `-parallel` settings.
package stats

import "math/bits"

// Histogram bucket geometry: log-2 octaves subdivided into 2^subBits
// sub-buckets, the classic HDR layout. With subBits=3 each bucket spans at
// most 12.5% of its value, which resolves p50/p90/p99 of microsecond-scale
// latencies well while the whole counts array stays a fixed ~4KB — no
// allocation ever happens after the Histogram value exists.
const (
	subBits    = 3
	subBuckets = 1 << subBits
	// NumBuckets covers all non-negative int64 values: values below
	// subBuckets map exactly to their own bucket, and each further octave
	// (exponents subBits..63) contributes subBuckets buckets.
	NumBuckets = (64 - subBits) * subBuckets
)

// Histogram is a fixed-bucket log-2 histogram of non-negative int64 samples
// (simulated nanoseconds, byte counts, queue depths). The zero value is
// ready to use; Observe never allocates.
type Histogram struct {
	counts [NumBuckets]uint64
	n      uint64
	sum    int64
	min    int64
	max    int64
}

// bucketOf maps a value to its bucket index. Values < subBuckets are exact;
// beyond that the index is (octave, sub-bucket) with sub-buckets taken from
// the bits just below the leading one.
func bucketOf(v int64) int {
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	sub := (u >> (uint(exp) - subBits)) & (subBuckets - 1)
	return (exp-subBits+1)<<subBits + int(sub)
}

// bucketLower returns the smallest value that maps to bucket i.
func bucketLower(i int) int64 {
	if i < subBuckets*2 {
		return int64(i)
	}
	block := i >> subBits // = exp - subBits + 1
	sub := i & (subBuckets - 1)
	return int64(subBuckets+sub) << uint(block-1)
}

// Observe records one sample. Negative values clamp to zero (they cannot
// occur in simulated time, but a histogram must never panic mid-run).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

// Mean returns the integer mean of the recorded samples (0 when empty).
func (h *Histogram) Mean() int64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / int64(h.n)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with linear interpolation
// inside the landing bucket, clamped to the exact observed min/max so Q(0)
// and Q(1) are precise. The walk is pure integer arithmetic over fixed
// buckets: byte-identical across runs.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q*float64(h.n-1)) + 1 // 1-based rank of the sample we want
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i := range h.counts {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		lo := bucketLower(i)
		hi := lo
		if i+1 < NumBuckets {
			hi = bucketLower(i+1) - 1
		}
		pos := rank - (cum - c) // 1..c, position within this bucket
		v := lo
		if c > 1 && hi > lo {
			v = lo + int64(uint64(hi-lo)*(pos-1)/(c-1))
		}
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}
