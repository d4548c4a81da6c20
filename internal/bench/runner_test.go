package bench

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCellsOrderAndConcurrency(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	cells := make([]int, 32)
	for i := range cells {
		cells[i] = i
	}
	var running, peak atomic.Int32
	results, err := RunCells(cells, func(c int) (int, error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
		return c * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*10 {
			t.Fatalf("results[%d] = %d, want %d (input order must be preserved)", i, r, i*10)
		}
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("observed %d concurrent cells, parallelism capped at 4", p)
	}
}

func TestRunCellsFirstErrorByIndex(t *testing.T) {
	errA := errors.New("cell 3 failed")
	errB := errors.New("cell 7 failed")
	for _, par := range []int{1, 4} {
		SetParallelism(par)
		_, err := RunCells([]int{0, 1, 2, 3, 4, 5, 6, 7}, func(c int) (int, error) {
			switch c {
			case 3:
				return 0, errA
			case 7:
				return 0, errB
			}
			return c, nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("parallel=%d: err = %v, want the lowest-index failure %v", par, err, errA)
		}
	}
	SetParallelism(0)
}
