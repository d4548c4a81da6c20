// TCP option wire format (RFC 793 §3.1, RFC 2018, RFC 7323): parsing for
// incoming segments and fixed-buffer builders for outgoing ones. Every
// builder writes into a caller-supplied array slice and keeps the option
// block 32-bit aligned, so the send path never allocates for options.
package tcp

import "encoding/binary"

// TCP option kinds.
const (
	optEnd      = 0 // end of option list
	optNOP      = 1 // padding
	optMSS      = 2 // maximum segment size (SYN only), length 4
	optWScale   = 3 // window scale (SYN only, RFC 7323), length 3
	optSackPerm = 4 // SACK permitted (SYN only, RFC 2018), length 2
	optSack     = 5 // SACK blocks, length 2+8n
)

// maxWndScale caps the window-scale shift (RFC 7323 §2.3).
const maxWndScale = 14

// maxParsedSackBlocks bounds SACK blocks taken from one segment; RFC 2018
// allows at most 4 when no timestamp option is present.
const maxParsedSackBlocks = 4

// parseOptions walks the option block between the fixed header and the data
// offset, filling the segment's option fields. Malformed options end the walk
// (the fixed header was already checksummed; a bad option list only costs the
// options themselves).
func parseOptions(b []byte, s *seg) {
	for i := 0; i < len(b); {
		kind := b[i]
		if kind == optEnd {
			return
		}
		if kind == optNOP {
			i++
			continue
		}
		if i+1 >= len(b) {
			return
		}
		l := int(b[i+1])
		if l < 2 || i+l > len(b) {
			return
		}
		switch kind {
		case optMSS:
			if l == 4 {
				s.mss = binary.BigEndian.Uint16(b[i+2:])
			}
		case optWScale:
			if l == 3 {
				sh := b[i+2]
				if sh > maxWndScale {
					sh = maxWndScale
				}
				s.wscale = int8(sh)
			}
		case optSackPerm:
			if l == 2 {
				s.sackPerm = true
			}
		case optSack:
			for j := 0; j < (l-2)/8 && int(s.nsack) < maxParsedSackBlocks; j++ {
				o := i + 2 + 8*j
				blk := sackBlock{
					start: binary.BigEndian.Uint32(b[o:]),
					end:   binary.BigEndian.Uint32(b[o+4:]),
				}
				if seqLT(blk.start, blk.end) {
					s.sack[s.nsack] = blk
					s.nsack++
				}
			}
		}
		i += l
	}
}

// putSynOptions writes the handshake options into buf and returns the slice
// used. wscale < 0 omits the window-scale option.
func putSynOptions(buf []byte, mss uint16, wscale int8, sackPerm bool) []byte {
	n := 0
	buf[n] = optMSS
	buf[n+1] = 4
	binary.BigEndian.PutUint16(buf[n+2:], mss)
	n += 4
	if sackPerm {
		buf[n] = optNOP
		buf[n+1] = optNOP
		buf[n+2] = optSackPerm
		buf[n+3] = 2
		n += 4
	}
	if wscale >= 0 {
		buf[n] = optNOP
		buf[n+1] = optWScale
		buf[n+2] = 3
		buf[n+3] = uint8(wscale)
		n += 4
	}
	return buf[:n]
}

// maxSentSackBlocks bounds SACK blocks on outgoing ACKs: three fit alongside
// the two alignment NOPs inside a 40-byte option field, and RFC 2018's
// guidance is that the first (most recent) blocks carry nearly all the value.
const maxSentSackBlocks = 3

// sackOptsLen is the buffer a full SACK option needs: NOP NOP + kind/len +
// 3 blocks of 8 bytes.
const sackOptsLen = 4 + 8*maxSentSackBlocks

// putSackOption writes NOP NOP SACK(blocks) into buf and returns the slice
// used (nil when blocks is empty).
func putSackOption(buf []byte, blocks []sackBlock) []byte {
	if len(blocks) == 0 {
		return nil
	}
	if len(blocks) > maxSentSackBlocks {
		blocks = blocks[:maxSentSackBlocks]
	}
	buf[0] = optNOP
	buf[1] = optNOP
	buf[2] = optSack
	buf[3] = uint8(2 + 8*len(blocks))
	n := 4
	for _, b := range blocks {
		binary.BigEndian.PutUint32(buf[n:], b.start)
		binary.BigEndian.PutUint32(buf[n+4:], b.end)
		n += 8
	}
	return buf[:n]
}

// wndScaleFor returns the smallest shift that lets cap fit a 16-bit window
// field, bounded by RFC 7323's maximum of 14.
func wndScaleFor(cap uint32) uint8 {
	s := uint8(0)
	for cap>>s > 65535 && s < maxWndScale {
		s++
	}
	return s
}
