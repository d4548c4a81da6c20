package tcp

import (
	"math/rand"
	"testing"

	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

// The out-of-order queue keeps sequence order however segments arrive,
// rejects duplicates, stops at its cap, and — once it has drained a
// recovery's worth — refills from recycled storage without allocating.
func TestOOOQueueOrderCapAndRecycling(t *testing.T) {
	p := mbuf.NewPool()
	pkt := chain(p, dgram(nil, make([]byte, 1000)), 200)
	defer pkt.Free()
	s, ok := parseHdr(pkt)
	if !ok {
		t.Fatal("test segment rejected")
	}
	c := ccTestConn(sim.New(1), "newreno", 1000, 10000, 64000)
	c.rcv.nxt = 5000
	fill := func(order []int) {
		for _, i := range order {
			s.seq = c.rcv.nxt + uint32(i)*1000
			c.bufferOOO(s, pkt)
		}
	}
	order := rand.New(rand.NewSource(3)).Perm(maxOOOSegs + 6)
	for i := range order {
		order[i]++ // leave the hole at rcv.nxt open
	}
	fill(order)
	fill(order[:10]) // duplicates of buffered segments, and more beyond the cap
	if len(c.ooo) != maxOOOSegs || c.stats.OOOBuffered != maxOOOSegs {
		t.Fatalf("queue holds %d (%d counted), want the cap %d", len(c.ooo), c.stats.OOOBuffered, maxOOOSegs)
	}
	if c.stats.OOODropped == 0 {
		t.Error("segments beyond the cap were not counted as dropped")
	}
	for i := 1; i < len(c.ooo); i++ {
		if !seqLT(c.ooo[i-1].seq, c.ooo[i].seq) {
			t.Fatalf("queue out of order at %d: %d then %d", i, c.ooo[i-1].seq, c.ooo[i].seq)
		}
	}
	// Deliver everything buffered contiguously above a (now filled) hole.
	drain := func() {
		c.rcv.nxt = c.ooo[0].seq
		c.drainOOO(nil)
	}
	drain()
	if len(c.oooFree)+len(c.ooo) != maxOOOSegs {
		t.Fatalf("%d buffers queued + %d free, want %d in all", len(c.ooo), len(c.oooFree), maxOOOSegs)
	}
	in := order[:8]
	if n := testing.AllocsPerRun(50, func() {
		for len(c.ooo) > 0 {
			drain()
		}
		c.rcv.nxt += 50000
		fill(in)
	}); n != 0 {
		t.Errorf("refilling a drained queue allocates %v, want 0", n)
	}
}
