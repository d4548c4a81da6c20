// Package filter implements a declarative packet-filter language for Plexus
// guards. The paper's guards are packet filters in the sense of Mogul,
// Rashid & Accetta [MRA87], and §3.5 notes that interpreted languages are an
// alternative in-kernel firewall mechanism to typesafe compiled code. This
// package provides both:
//
//   - Compile: a filter expression compiled to a native event.Guard (a Go
//     closure tree) — the typesafe-extension model, costing only the
//     dispatcher's guard-evaluation charge;
//   - CompileInterpreted: the same expression compiled to bytecode for a
//     small stack VM whose execution charges per-instruction simulated time —
//     the interpreted-firewall model the paper contrasts with.
//
// The expression language is boolean logic over packet header fields:
//
//	ether.type == 0x0800 && ip.proto == 17 && (udp.dport == 7 || udp.dport == 9)
//	ip.src == 10.0.0.1 && tcp.dport < 1024 && !ip.frag
//
// Fields resolve against a base framing: BaseEthernet for guards installed
// on Ethernet.PacketRecv (the packet starts at the Ethernet header) and
// BaseIP for guards on IP.PacketRecv and above (the packet starts at the IP
// header). A field that does not apply to the packet at hand (e.g.
// udp.dport of a TCP segment) makes the containing comparison false rather
// than erroring, which is what packet filters want.
package filter

import (
	"fmt"

	"plexus/internal/mbuf"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Base selects the framing the filter's fields resolve against.
type Base int

const (
	// BaseEthernet: the packet begins with an Ethernet header.
	BaseEthernet Base = iota
	// BaseIP: the packet begins with an IPv4 header.
	BaseIP
)

// Field identifies an extractable header field.
type Field int

// The filterable fields.
const (
	FieldEtherType   Field = iota
	FieldEtherDstLow       // low 32 bits of the destination MAC
	FieldIPProto
	FieldIPSrc
	FieldIPDst
	FieldIPTTL
	FieldIPLen
	FieldIPFrag // 1 if the packet is a fragment
	FieldSrcPort
	FieldDstPort
	FieldTCPFlags
)

var fieldNames = map[string]Field{
	"ether.type": FieldEtherType,
	"ether.dst":  FieldEtherDstLow,
	"ip.proto":   FieldIPProto,
	"ip.src":     FieldIPSrc,
	"ip.dst":     FieldIPDst,
	"ip.ttl":     FieldIPTTL,
	"ip.len":     FieldIPLen,
	"ip.frag":    FieldIPFrag,
	"udp.sport":  FieldSrcPort,
	"udp.dport":  FieldDstPort,
	"tcp.sport":  FieldSrcPort,
	"tcp.dport":  FieldDstPort,
	"tcp.flags":  FieldTCPFlags,
}

// fieldProto returns the IP protocol a field implies (0 = none): using
// udp.dport implicitly requires ip.proto == UDP.
func fieldProto(name string) uint8 {
	switch name {
	case "udp.sport", "udp.dport":
		return view.IPProtoUDP
	case "tcp.sport", "tcp.dport", "tcp.flags":
		return view.IPProtoTCP
	}
	return 0
}

// extractBytes pulls a field's value from a raw packet — a frame, a header
// scratch buffer, or an mbuf's bytes. ok is false when the field does not
// apply (wrong framing, wrong protocol, truncated packet).
func extractBytes(b []byte, base Base, f Field, wantProto uint8) (v uint32, ok bool) {
	ipOff := 0
	if base == BaseEthernet {
		eth, err := view.Ethernet(b)
		if err != nil {
			return 0, false
		}
		switch f {
		case FieldEtherType:
			return uint32(eth.EtherType()), true
		case FieldEtherDstLow:
			d := eth.Dst()
			return uint32(d[2])<<24 | uint32(d[3])<<16 | uint32(d[4])<<8 | uint32(d[5]), true
		}
		if eth.EtherType() != view.EtherTypeIPv4 {
			return 0, false
		}
		ipOff = view.EthernetHdrLen
	} else if f == FieldEtherType || f == FieldEtherDstLow {
		return 0, false // no link header visible at BaseIP
	}
	if len(b) < ipOff+view.IPv4MinHdrLen {
		return 0, false
	}
	ipv, err := view.IPv4(b[ipOff:])
	if err != nil {
		return 0, false
	}
	switch f {
	case FieldIPProto:
		return uint32(ipv.Proto()), true
	case FieldIPSrc:
		return ipv.Src().Uint32(), true
	case FieldIPDst:
		return ipv.Dst().Uint32(), true
	case FieldIPTTL:
		return uint32(ipv.TTL()), true
	case FieldIPLen:
		return uint32(ipv.TotalLen()), true
	case FieldIPFrag:
		if ipv.MoreFragments() || ipv.FragOffset() > 0 {
			return 1, true
		}
		return 0, true
	}
	// Transport fields: the protocol must match the one the field implies,
	// and only the first fragment carries the transport header.
	if wantProto != 0 && ipv.Proto() != wantProto {
		return 0, false
	}
	if ipv.FragOffset() > 0 {
		return 0, false
	}
	tOff := ipOff + ipv.HdrLen()
	if len(b) < tOff+4 {
		return 0, false
	}
	switch f {
	case FieldSrcPort:
		return uint32(b[tOff])<<8 | uint32(b[tOff+1]), true
	case FieldDstPort:
		return uint32(b[tOff+2])<<8 | uint32(b[tOff+3]), true
	case FieldTCPFlags:
		if len(b) < tOff+14 {
			return 0, false
		}
		return uint32(b[tOff+13] & 0x3f), true
	}
	return 0, false
}

// --- AST ---------------------------------------------------------------------

// Op is a comparison or logical operator.
type Op int

// Operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpGt
	OpLe
	OpGe
	OpIn // CIDR prefix membership
	OpAnd
	OpOr
)

func (o Op) String() string {
	return [...]string{"==", "!=", "<", ">", "<=", ">=", "in", "&&", "||"}[o]
}

// Node is a filter expression node.
type Node interface {
	// eval returns the node's boolean value for the packet.
	eval(b []byte, base Base) bool
	String() string
}

// cmpNode compares a field with a constant.
type cmpNode struct {
	fieldName string
	field     Field
	proto     uint8
	op        Op
	value     uint32
}

func (n *cmpNode) eval(b []byte, base Base) bool {
	v, ok := extractBytes(b, base, n.field, n.proto)
	if !ok {
		return false
	}
	switch n.op {
	case OpEq:
		return v == n.value
	case OpNe:
		return v != n.value
	case OpLt:
		return v < n.value
	case OpGt:
		return v > n.value
	case OpLe:
		return v <= n.value
	case OpGe:
		return v >= n.value
	}
	return false
}

func (n *cmpNode) String() string {
	return fmt.Sprintf("%s %s %d", n.fieldName, n.op, n.value)
}

// inNode tests CIDR prefix membership: `ip.dst in 10.0.1.0/24`. value holds
// the network (already masked) and mask the prefix mask.
type inNode struct {
	fieldName string
	field     Field
	proto     uint8
	value     uint32
	mask      uint32
	prefixLen int
}

func (n *inNode) eval(b []byte, base Base) bool {
	v, ok := extractBytes(b, base, n.field, n.proto)
	return ok && v&n.mask == n.value
}

func (n *inNode) String() string {
	return fmt.Sprintf("%s in %d.%d.%d.%d/%d", n.fieldName,
		n.value>>24, n.value>>16&0xff, n.value>>8&0xff, n.value&0xff, n.prefixLen)
}

// boolNode combines two subexpressions.
type boolNode struct {
	op   Op // OpAnd or OpOr
	l, r Node
}

func (n *boolNode) eval(b []byte, base Base) bool {
	if n.op == OpAnd {
		return n.l.eval(b, base) && n.r.eval(b, base)
	}
	return n.l.eval(b, base) || n.r.eval(b, base)
}

func (n *boolNode) String() string {
	return fmt.Sprintf("(%s %s %s)", n.l, n.op, n.r)
}

// notNode negates a subexpression.
type notNode struct{ x Node }

func (n *notNode) eval(b []byte, base Base) bool { return !n.x.eval(b, base) }
func (n *notNode) String() string                { return "!" + n.x.String() }

// fieldTruth treats a bare field as "nonzero" (e.g. `ip.frag`).
type fieldTruth struct {
	fieldName string
	field     Field
	proto     uint8
}

func (n *fieldTruth) eval(b []byte, base Base) bool {
	v, ok := extractBytes(b, base, n.field, n.proto)
	return ok && v != 0
}

func (n *fieldTruth) String() string { return n.fieldName }

// --- native backend ------------------------------------------------------------

// Filter is a parsed filter expression bound to a framing base.
type Filter struct {
	root Node
	base Base
	src  string
}

// Parse compiles source text into a Filter for the given base framing.
func Parse(src string, base Base) (*Filter, error) {
	root, err := parse(src)
	if err != nil {
		return nil, err
	}
	return &Filter{root: root, base: base, src: src}, nil
}

// String returns the original source.
func (f *Filter) String() string { return f.src }

// Match evaluates the filter against a packet.
func (f *Filter) Match(m *mbuf.Mbuf) bool { return f.root.eval(m.Bytes(), f.base) }

// MatchBytes evaluates the filter against a raw packet buffer — used by the
// fabric plane, where packets are wire frames or header scratch rather than
// mbufs.
func (f *Filter) MatchBytes(b []byte) bool { return f.root.eval(b, f.base) }

// Guard returns the filter as a native event.Guard — the typesafe-extension
// model: compiled code, charged only the dispatcher's guard cost.
func (f *Filter) Guard() func(t *sim.Task, m *mbuf.Mbuf) bool {
	return func(t *sim.Task, m *mbuf.Mbuf) bool {
		return f.Match(m)
	}
}
