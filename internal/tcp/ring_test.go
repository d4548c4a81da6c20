package tcp

import (
	"bytes"
	"math/rand"
	"testing"
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
