package view

import (
	"encoding/binary"
	"math/bits"
)

// Internet checksum (RFC 1071), with an accumulator form so transport layers
// can checksum a pseudo-header followed by a payload that spans mbuf chains
// without gathering the bytes first.

// Accum accumulates the one's-complement sum of byte runs. The zero value is
// ready to use. Runs may be added in any chunking; odd-length chunks are
// handled by carrying the dangling byte.
type Accum struct {
	sum uint64 // 64-bit one's-complement sum of big-endian 16-bit words
	odd bool
}

// Add folds b into the accumulator. This is the per-packet hot loop of every
// modeled IP/UDP/TCP checksum, so it sums 64-bit little-endian words with
// math/bits.Add64, unrolled over 64-byte blocks, adds the carries back in
// (end-around carry), and
// byte-swaps the run's sum once at the end: a byte-swapped one's-complement
// sum is the sum of the byte-swapped words (RFC 1071 §2(B)). A run that
// starts at an odd offset needs no swap at all, because its little-endian
// words already line up with the big-endian words of the whole.
func (a *Accum) Add(b []byte) {
	// s gathers the words mod 2^64 and carries counts its overflows, each
	// worth 2^64, which is 1 modulo 2^64-1 and so modulo 0xffff.
	var s, c, carries uint64
	n := len(b)
	for ; len(b) >= 64; b = b[64:] {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[0:8]), 0)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[8:16]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[16:24]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[24:32]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[32:40]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[40:48]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[48:56]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[56:64]), c)
		carries += c
	}
	for ; len(b) >= 8; b = b[8:] {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b), 0)
		carries += c
	}
	// The tail holds fewer than eight bytes, each at an even offset within
	// its 16-bit word, so their sum fits one more add.
	var tail uint64
	if len(b) >= 4 {
		tail = uint64(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		tail += uint64(binary.LittleEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		tail += uint64(b[0])
	}
	s, c = bits.Add64(s, tail, 0)
	s, c = bits.Add64(s, carries+c, 0)
	s += c // cannot overflow: after a carry out, s is below carries+1
	if !a.odd {
		s = bits.ReverseBytes64(s)
	}
	a.addWide(s)
	a.odd = a.odd != (n&1 == 1)
}

// addWide folds a 64-bit one's-complement value into the sum.
func (a *Accum) addWide(v uint64) {
	var c uint64
	a.sum, c = bits.Add64(a.sum, v, 0)
	a.sum += c
}

// AddUint16 folds one 16-bit value (for pseudo-header fields). It must not be
// called mid-byte (with an odd total so far).
func (a *Accum) AddUint16(v uint16) {
	if a.odd {
		panic("view: AddUint16 at odd offset")
	}
	a.addWide(uint64(v))
}

// Fold finishes the sum and returns the complemented checksum.
func (a *Accum) Fold() uint16 {
	s, c := bits.Add32(uint32(a.sum), uint32(a.sum>>32), 0)
	s += c // cannot overflow: after a carry out, s is below 2^32-1
	s = s&0xffff + s>>16
	s = s&0xffff + s>>16
	return ^uint16(s)
}

// Checksum computes the internet checksum of b.
func Checksum(b []byte) uint16 {
	var a Accum
	a.Add(b)
	return a.Fold()
}

// PseudoHeader seeds an accumulator with the IPv4 pseudo-header used by UDP
// and TCP checksums.
func PseudoHeader(src, dst IP4, proto uint8, length int) Accum {
	// An address read as one big-endian 32-bit value is congruent to the
	// sum of its two 16-bit words modulo 0xffff, which is all the
	// one's-complement sum keeps.
	a := Accum{sum: uint64(binary.BigEndian.Uint32(src[:])) + uint64(binary.BigEndian.Uint32(dst[:]))}
	a.AddUint16(uint16(proto))
	a.AddUint16(uint16(length))
	return a
}
