// Package view reproduces the paper's VIEW operator (§3.2): safe, zero-copy
// interpretation of a byte array as a typed protocol header.
//
// Modula-3's VIEW(a,T) reinterprets a's bit pattern as a value of a scalar
// aggregate type T, with the compiler guaranteeing that no access strays
// outside a. Go cannot overlay structs on byte slices safely, so the same
// contract is provided by overlay types: a constructor validates that the
// slice is long enough for the header (the single bounds check VIEW implies),
// and every field accessor is then a fixed-offset read or write within that
// validated window. Field access after construction cannot fail, matching
// VIEW's "cast once, then typed access" shape, and no bytes are ever copied.
//
// All multi-byte fields are big-endian (network byte order).
package view

import (
	"errors"
	"fmt"
)

// ErrShort reports a buffer too short for the requested header view.
var ErrShort = errors.New("view: buffer too short for header")

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the conventional colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// IP4 is a 32-bit IPv4 address.
type IP4 [4]byte

// String renders dotted-quad form.
func (a IP4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a big-endian integer.
func (a IP4) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// IP4FromUint32 builds an address from a big-endian integer.
func IP4FromUint32(v uint32) IP4 {
	return IP4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// IsMulticast reports whether a is in 224.0.0.0/4.
func (a IP4) IsMulticast() bool { return a[0]&0xf0 == 0xe0 }

// IsBroadcast reports whether a is 255.255.255.255.
func (a IP4) IsBroadcast() bool { return a == IP4{255, 255, 255, 255} }

// be16/be32 are the primitive big-endian accessors all views share.

func be16(b []byte, off int) uint16 { return uint16(b[off])<<8 | uint16(b[off+1]) }
func put16(b []byte, off int, v uint16) {
	b[off] = byte(v >> 8)
	b[off+1] = byte(v)
}
func be32(b []byte, off int) uint32 {
	return uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
}
func put32(b []byte, off int, v uint32) {
	b[off] = byte(v >> 24)
	b[off+1] = byte(v >> 16)
	b[off+2] = byte(v >> 8)
	b[off+3] = byte(v)
}
