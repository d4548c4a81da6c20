package tcp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// ringBytes copies held bytes [off, off+n) out through peek.
func ringBytes(r *byteRing, off, n int) []byte {
	a, b := r.peek(off, n)
	return append(append([]byte(nil), a...), b...)
}

// The ring must behave exactly like a plain slice under any interleaving of
// append, discard and peek — through wraps, growth while wrapped, discards
// past the end and peeks of nothing.
func TestByteRingMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r byteRing
		var model []byte
		next := byte(0)
		for step := 0; step < 400; step++ {
			switch rng.Intn(3) {
			case 0:
				p := make([]byte, rng.Intn(700))
				for i := range p {
					p[i] = next
					next++
				}
				r.append(p)
				model = append(model, p...)
			case 1:
				n := rng.Intn(len(model) + 40) // sometimes more than is held
				r.discard(n)
				if n > len(model) {
					n = len(model)
				}
				model = model[n:]
			case 2:
				off := rng.Intn(len(model) + 1)
				n := rng.Intn(len(model) - off + 1)
				if got := ringBytes(&r, off, n); !bytes.Equal(got, model[off:off+n]) {
					t.Fatalf("seed %d step %d: peek(%d,%d) differs from model", seed, step, off, n)
				}
			}
			if r.len() != len(model) {
				t.Fatalf("seed %d step %d: len %d, model %d", seed, step, r.len(), len(model))
			}
			if c := len(r.buf); c&(c-1) != 0 {
				t.Fatalf("seed %d step %d: capacity %d is not a power of two", seed, step, c)
			}
			if got := ringBytes(&r, 0, r.len()); !bytes.Equal(got, model) {
				t.Fatalf("seed %d step %d: contents differ from model", seed, step)
			}
		}
	}
}

func TestByteRingEdges(t *testing.T) {
	var r byteRing
	if a, b := r.peek(0, 0); a != nil || b != nil {
		t.Error("peek of an empty ring returned bytes")
	}
	r.discard(10) // discarding from nothing is a no-op
	r.append(nil)
	if r.len() != 0 || r.buf != nil {
		t.Error("empty append allocated")
	}
	// The first allocation is sized by the first write.
	r.append(make([]byte, 1000))
	if len(r.buf) != 1024 {
		t.Errorf("first allocation %d, want 1024", len(r.buf))
	}
	// Wrap: 900 out, 900 in leaves the data split across the end.
	r.discard(900)
	r.append(bytes.Repeat([]byte{7}, 900))
	a, b := r.peek(0, r.len())
	if len(b) == 0 || len(a)+len(b) != 1000 {
		t.Fatalf("expected a wrapped peek, got %d+%d", len(a), len(b))
	}
	// Grow while wrapped keeps the order.
	want := ringBytes(&r, 0, r.len())
	r.append(make([]byte, 100))
	if len(r.buf) != 2048 || !bytes.Equal(ringBytes(&r, 0, 1000), want) {
		t.Error("growth while wrapped reordered the contents")
	}
	// A steady fill/drain cycle at a fixed depth never grows again.
	chunk := make([]byte, 1460)
	r.discard(r.len())
	if n := testing.AllocsPerRun(100, func() { r.append(chunk); r.peek(0, 1460); r.discard(1460) }); n != 0 {
		t.Errorf("steady append/peek/discard allocates %v", n)
	}
}

// BenchmarkByteRing is the send buffer's steady state: one MSS in at the
// tail, one peeked and discarded at the head, 64 KiB deep.
func BenchmarkByteRing(b *testing.B) {
	var r byteRing
	chunk := make([]byte, 1460)
	for r.len() < 64<<10 {
		r.append(chunk)
	}
	b.SetBytes(1460)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.append(chunk)
		p0, p1 := r.peek(0, 1460)
		sinkInt += len(p0) + len(p1)
		r.discard(1460)
	}
}

var sinkInt int

// ringConn is a bare SYN-SENT connection — Send buffers, output sends
// nothing — on m's books as newConn leaves one, whose first Send wrote size
// bytes; acked of them are then acknowledged.
func ringConn(m *Manager, size, acked int) *Conn {
	c := &Conn{mgr: m, state: StateSynSent, slot: len(m.connList)}
	m.connList = append(m.connList, c)
	m.liveConns++
	if err := c.Send(nil, make([]byte, size)); err != nil {
		panic(err)
	}
	c.sndBuf.discard(acked)
	return c
}

// A connection entering TIME-WAIT with everything acknowledged keeps no send
// storage, and the next connection's first Send takes that ring instead of
// allocating one.
func TestTimeWaitRingIsRecycled(t *testing.T) {
	m := &Manager{host: &osmodel.Host{Sim: sim.New(1)}}
	c := ringConn(m, 1000, 1000)
	ring := c.sndBuf.buf
	if len(ring) != 1024 {
		t.Fatalf("a 1000-byte write made a %d-byte ring, want 1024", len(ring))
	}
	c.enterTimeWait(userCause(CauseClose))
	if c.sndBuf.buf != nil || len(m.rings) != 1 {
		t.Fatalf("TIME-WAIT holds %d bytes of ring, pool %d rings", len(c.sndBuf.buf), len(m.rings))
	}
	next := ringConn(m, 900, 0)
	if &next.sndBuf.buf[0] != &ring[0] || len(m.rings) != 0 {
		t.Fatal("the next connection's first Send allocated a ring instead of taking the pooled one")
	}
}

// Teardown returns an empty ring too, but not one still holding data (a
// reset mid-stream), and never one above the recycling bound: a bulk
// connection's storage goes to the garbage collector with its TCB.
func TestTeardownRingRecycling(t *testing.T) {
	m := &Manager{host: &osmodel.Host{Sim: sim.New(1)}}
	ringConn(m, 1000, 1000).teardown(nil, userCause(CauseClose))
	if len(m.rings) != 1 {
		t.Fatalf("pool holds %d rings after an empty teardown, want 1", len(m.rings))
	}
	// This one takes the pooled ring and is reset with data buffered.
	ringConn(m, 1000, 10).teardown(ErrReset, userCause(CauseAbort))
	if len(m.rings) != 0 {
		t.Fatalf("pool holds %d rings after a teardown with data buffered, want 0", len(m.rings))
	}
	big := ringConn(m, 20000, 20000)
	if len(big.sndBuf.buf) != 32<<10 {
		t.Fatalf("a 20000-byte write made a %d-byte ring, want 32 KiB", len(big.sndBuf.buf))
	}
	big.enterTimeWait(userCause(CauseClose))
	if big.sndBuf.buf != nil || len(m.rings) != 0 {
		t.Fatalf("a ring above the bound was kept (pool %d rings)", len(m.rings))
	}
}

// The pool keeps rings up to maxPooledRing, at most maxPooledRings of them,
// and hands out only a ring of exactly the size a fresh first write would
// make; a take and a return allocate nothing.
func TestRingPoolBounds(t *testing.T) {
	var m Manager
	m.keepRing(nil)
	m.keepRing(make([]byte, 2*maxPooledRing))
	if len(m.rings) != 0 {
		t.Fatalf("pool kept %d rings, want none", len(m.rings))
	}
	for i := 0; i <= maxPooledRings; i++ {
		m.keepRing(make([]byte, 2048))
	}
	if len(m.rings) != maxPooledRings {
		t.Fatalf("pool holds %d rings, want %d", len(m.rings), maxPooledRings)
	}
	if b := m.takeRing(1000); b != nil {
		t.Fatalf("a 1000-byte write got a %d-byte ring, want none", len(b))
	}
	if b := m.takeRing(0); b != nil {
		t.Fatal("an empty write took a ring")
	}
	if b := m.takeRing(1500); len(b) != 2048 || len(m.rings) != maxPooledRings-1 {
		t.Fatalf("a 1500-byte write got %d bytes (pool %d)", len(b), len(m.rings))
	}
	data := make([]byte, 1500)
	if n := testing.AllocsPerRun(100, func() {
		r := byteRing{buf: m.takeRing(len(data))}
		r.append(data)
		r.discard(r.len())
		m.keepRing(r.buf)
	}); n != 0 {
		t.Errorf("take, fill and return allocates %v", n)
	}
}

// connName builds byte for byte what fmt's %d-%v:%d made, trace exports and
// goldens included.
func TestConnNameMatchesFmt(t *testing.T) {
	for _, port := range []uint16{0, 1, 9, 10, 99, 255, 256, 32768, 65535} {
		for _, addr := range []view.IP4{{0, 0, 0, 0}, {10, 0, 0, 2}, {1, 22, 133, 4}, {255, 255, 255, 255}} {
			want := fmt.Sprintf("tcp.conn:%d-%v:%d", port, addr, 65535-port)
			if got := connName(port, addr, 65535-port); got != want {
				t.Errorf("connName = %q, want %q", got, want)
			}
		}
	}
}
