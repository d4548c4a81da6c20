package mbuf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// The property tests drive random operation sequences against a packet chain
// and a reference byte slice, checking that the chain behaves exactly like
// the flat model and that structural invariants hold after every step.

type opKind int

const (
	opAdjFront opKind = iota
	opAdjBack
	opPrepend
	opCat
	opPullup
	numOps
)

func TestQuickChainModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64, sizeRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		size := int(sizeRaw % 4096)
		p := NewPool()
		ref := payload(size)
		m := p.FromBytes(ref, 32)
		ref = append([]byte(nil), ref...)

		for step := 0; step < 20; step++ {
			switch opKind(r.Intn(int(numOps))) {
			case opAdjFront:
				n := r.Intn(len(ref)/2 + 1)
				m.Adj(n)
				ref = ref[n:]
			case opAdjBack:
				n := r.Intn(len(ref)/2 + 1)
				m.Adj(-n)
				ref = ref[:len(ref)-n]
			case opPrepend:
				n := r.Intn(48)
				nm, err := m.Prepend(n)
				if err != nil {
					return false
				}
				m = nm
				ref = append(make([]byte, n), ref...)
			case opCat:
				data := payload(r.Intn(600))
				if err := m.Cat(p.FromBytes(data, 0)); err != nil {
					return false
				}
				ref = append(ref, data...)
			case opPullup:
				want := r.Intn(MLEN)
				if want > m.PktLen() {
					want = m.PktLen()
				}
				nm, err := m.Pullup(want)
				if err != nil {
					return false
				}
				m = nm
				if m.Len() < want {
					return false
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Logf("invariant violated after step %d: %v", step, err)
				return false
			}
			if m.PktLen() != len(ref) {
				t.Logf("length diverged: chain=%d model=%d", m.PktLen(), len(ref))
				return false
			}
			got, err := m.CopyData(0, m.PktLen())
			if err != nil || !bytes.Equal(got, ref) {
				t.Logf("content diverged at step %d", step)
				return false
			}
		}
		m.Free()
		return p.Stats().InUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: Clone always produces identical content, and freeing the clone
// never affects the original.
func TestQuickCloneIndependence(t *testing.T) {
	f := func(sizeRaw uint16, seed int64) bool {
		size := int(sizeRaw % 6000)
		p := NewPool()
		data := payload(size)
		m := p.FromBytes(data, 16)
		c, err := m.Clone()
		if err != nil {
			return false
		}
		gc, err := c.CopyData(0, c.PktLen())
		if err != nil || !bytes.Equal(gc, data) {
			return false
		}
		c.Free()
		gm, err := m.CopyData(0, m.PktLen())
		if err != nil || !bytes.Equal(gm, data) {
			return false
		}
		m.Free()
		return p.Stats().InUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}
