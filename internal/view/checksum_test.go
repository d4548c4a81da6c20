package view

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference implementation: straightforward RFC 1071 sum over one flat slice.
func refChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

func TestChecksumKnownVector(t *testing.T) {
	// Classic example from RFC 1071 §3: the 16-bit words 0x0001, 0xf203,
	// 0xf4f5, 0xf6f7 sum to 0xddf2 before complement.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumEmpty(t *testing.T) {
	if got := Checksum(nil); got != 0xffff {
		t.Errorf("Checksum(nil) = %#04x, want 0xffff", got)
	}
}

func TestChecksumVerifyProperty(t *testing.T) {
	// Appending the checksum of b to b yields a buffer whose checksum is 0.
	f := func(b []byte) bool {
		if len(b)%2 == 1 {
			b = append(b, 0)
		}
		c := Checksum(b)
		whole := append(append([]byte(nil), b...), byte(c>>8), byte(c))
		return Checksum(whole) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// Property: the accumulator gives the same answer regardless of how the input
// is chunked, including odd-length chunks.
func TestQuickAccumChunkingInvariance(t *testing.T) {
	f := func(b []byte, cuts []uint8) bool {
		want := refChecksum(b)
		var a Accum
		rest := b
		for _, c := range cuts {
			if len(rest) == 0 {
				break
			}
			n := int(c) % (len(rest) + 1)
			a.Add(rest[:n])
			rest = rest[n:]
		}
		a.Add(rest)
		return a.Fold() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

func TestAccumAddUint16(t *testing.T) {
	var a Accum
	a.AddUint16(0x1234)
	a.Add([]byte{0x56, 0x78})
	if got, want := a.Fold(), refChecksum([]byte{0x12, 0x34, 0x56, 0x78}); got != want {
		t.Errorf("mixed accum = %#04x, want %#04x", got, want)
	}
}

func TestAccumAddUint16AtOddOffsetPanics(t *testing.T) {
	var a Accum
	a.Add([]byte{0x01})
	defer func() {
		if recover() == nil {
			t.Fatal("AddUint16 at odd offset did not panic")
		}
	}()
	a.AddUint16(7)
}

// PseudoHeader must seed the sum exactly as the flat pseudo-header bytes
// would, including the all-zero header (a zero sum) and all-ones fields.
func TestPseudoHeader(t *testing.T) {
	for _, c := range []struct {
		src, dst IP4
		proto    uint8
		payload  []byte
	}{
		{IP4{10, 0, 0, 1}, IP4{10, 0, 0, 2}, IPProtoUDP, []byte{0xca, 0xfe, 0xba, 0xbe}},
		{IP4{}, IP4{}, 0, nil},
		{IP4{255, 255, 255, 255}, IP4{255, 255, 255, 255}, 255, bytes.Repeat([]byte{0xff}, 301)},
		{IP4{192, 168, 1, 77}, IP4{0, 0, 0, 1}, IPProtoTCP, make([]byte, 65535)},
	} {
		a := PseudoHeader(c.src, c.dst, c.proto, len(c.payload))
		a.Add(c.payload)
		flat := append(append(c.src[:], c.dst[:]...), 0, c.proto, byte(len(c.payload)>>8), byte(len(c.payload)))
		if got, want := a.Fold(), refChecksum(append(flat, c.payload...)); got != want {
			t.Errorf("%v > %v proto %d, %d bytes: checksum = %#04x, want %#04x",
				c.src, c.dst, c.proto, len(c.payload), got, want)
		}
	}
}

// FuzzAccumAgreesWithRef is differential: any bytes, cut into runs at any
// offsets (odd ones included) and fed through Accum.Add, checksum exactly as
// refChecksum does over the flat slice. cuts is read a byte at a time, each
// the length of the next run modulo what is left. The seeds straddle the
// 64-byte block and 8-byte word edges of Add's loops.
func FuzzAccumAgreesWithRef(f *testing.F) {
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + i>>8)
		}
		return b
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xab}, []byte{})
	for _, n := range []int{63, 64, 65} {
		f.Add(pattern(n), []byte{})
	}
	f.Add(make([]byte, 1500), []byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 1500), []byte{})
	f.Add(pattern(9000), []byte{})
	f.Add(pattern(1500), []byte{1, 64, 3, 65, 7})
	f.Add(bytes.Repeat([]byte{0xff}, 200), []byte{3, 129, 1})
	f.Fuzz(func(t *testing.T, b, cuts []byte) {
		want := refChecksum(b)
		var a Accum
		rest := b
		for _, c := range cuts {
			n := int(c) % (len(rest) + 1)
			a.Add(rest[:n])
			rest = rest[n:]
		}
		a.Add(rest)
		if got := a.Fold(); got != want {
			t.Errorf("%d bytes cut by %v: Accum %#04x, ref %#04x", len(b), cuts, got, want)
		}
	})
}

var checksumSink uint16

// BenchmarkChecksum covers the short packets of echo and forwarding
// workloads (20 and 64 B) as well as full Ethernet and jumbo frames.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{20, 64, 1500, 9000} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i)
		}
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksumSink = Checksum(buf)
			}
		})
	}
}
