package stats

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramSmallValuesExact(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 16; v++ {
		h.Observe(v)
	}
	if h.n != 16 || h.min != 0 || h.max != 15 {
		t.Fatalf("count=%d min=%d max=%d", h.n, h.min, h.max)
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("q0 = %d", got)
	}
	if got := h.Quantile(1); got != 15 {
		t.Fatalf("q1 = %d", got)
	}
	// Values below 2*subBuckets land in exact unit buckets.
	for v := int64(0); v < 16; v++ {
		if b := bucketOf(v); bucketLower(b) != v {
			t.Fatalf("value %d: bucket %d lower %d", v, b, bucketLower(b))
		}
	}
}

func TestHistogramBucketContiguity(t *testing.T) {
	// Every bucket's lower bound must be the previous bucket's upper bound:
	// no gaps, no overlaps, monotone.
	prev := int64(-1)
	for i := 0; i < NumBuckets; i++ {
		lo := bucketLower(i)
		if lo <= prev {
			t.Fatalf("bucket %d lower %d not increasing (prev %d)", i, lo, prev)
		}
		if bucketOf(lo) != i {
			t.Fatalf("bucket %d lower %d maps to bucket %d", i, lo, bucketOf(lo))
		}
		if lo > 0 && bucketOf(lo-1) != i-1 {
			t.Fatalf("value %d should map to bucket %d, got %d", lo-1, i-1, bucketOf(lo-1))
		}
		prev = lo
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Against a sorted reference: each quantile must land within one bucket
	// width (12.5% relative error) of the exact order statistic.
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	vals := make([]int64, 5000)
	for i := range vals {
		v := int64(rng.Intn(5_000_000)) + 50_000 // 50µs..5ms in ns
		vals[i] = v
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := h.Quantile(q)
		lo, hi := float64(exact)*0.85, float64(exact)*1.15
		if float64(got) < lo || float64(got) > hi {
			t.Fatalf("q%.2f: got %d, exact %d (allowed %.0f..%.0f)", q, got, exact, lo, hi)
		}
	}
	if h.Mean() <= 0 || h.sum <= 0 {
		t.Fatalf("mean=%d sum=%d", h.Mean(), h.sum)
	}
}

func TestHistogramDeterministic(t *testing.T) {
	build := func() *Histogram {
		var h Histogram
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 1000; i++ {
			h.Observe(int64(rng.Intn(1 << 30)))
		}
		return &h
	}
	a, b := build(), build()
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q%.2f differs: %d vs %d", q, a.Quantile(q), b.Quantile(q))
		}
	}
}

func TestHistogramNegativeClampsAndReset(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.min != 0 || h.max != 0 || h.n != 1 {
		t.Fatalf("negative observe: min=%d max=%d n=%d", h.min, h.max, h.n)
	}
}

func TestHistogramObserveNoAlloc(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op", allocs)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty histogram q%.2f = %d, want 0", q, got)
		}
	}
	if h.min != 0 || h.max != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram min=%d max=%d mean=%d", h.min, h.max, h.Mean())
	}
}

func TestHistogramQuantileSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(777_000)
	// With one sample every quantile is that sample, exactly — the clamp to
	// observed min/max must override bucket interpolation.
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
		if got := h.Quantile(q); got != 777_000 {
			t.Fatalf("single-sample q%.2f = %d, want 777000", q, got)
		}
	}
}

func TestHistogramQuantileSaturatedBucket(t *testing.T) {
	// Every sample identical: one bucket holds the entire population. All
	// quantiles must return exactly that value (clamped, not interpolated
	// across the bucket span).
	var h Histogram
	for i := 0; i < 10_000; i++ {
		h.Observe(1_000_000)
	}
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		if got := h.Quantile(q); got != 1_000_000 {
			t.Fatalf("saturated q%.3f = %d, want 1000000", q, got)
		}
	}
	if h.min != 1_000_000 || h.max != 1_000_000 {
		t.Fatalf("min=%d max=%d", h.min, h.max)
	}
}
