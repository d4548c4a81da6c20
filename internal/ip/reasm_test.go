package ip

import (
	"math/rand"
	"slices"
	"testing"
)

// setBits and allBits agree with a one-bool-per-unit model over random
// ranges, half of whose ends are snapped to within one unit of a word edge.
func TestBitmapMatchesBoolModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(lo, hi int) int {
		u := lo + rng.Intn(hi-lo+1)
		if rng.Intn(2) == 0 {
			u = u&^63 + rng.Intn(3) - 1
		}
		return min(max(u, lo), hi)
	}
	for trial := 0; trial < 2000; trial++ {
		units := 1 + rng.Intn(300)
		m := make(bitmap, (units+63)/64)
		model := make([]bool, len(m)*64)
		for op := 0; op < 1+rng.Intn(8); op++ {
			lo := pick(0, units)
			hi := pick(lo, units)
			m.setBits(lo, hi)
			for u := lo; u < hi; u++ {
				model[u] = true
			}
			for u, want := range model {
				if got := m[u/64]>>(u%64)&1 == 1; got != want {
					t.Fatalf("units %d, after setBits(%d, %d): bit %d = %v, want %v", units, lo, hi, u, got, want)
				}
			}
			for n := 0; n <= units; n++ {
				if got, want := m.allBits(n), !slices.Contains(model[:n], false); got != want {
					t.Fatalf("units %d, after setBits(%d, %d): allBits(%d) = %v, want %v", units, lo, hi, n, got, want)
				}
			}
		}
	}
}
