package fabric

import (
	"fmt"

	"plexus/internal/filter"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Source NAT: flows originating inside the configured CIDR are rewritten to
// the NAT address with a deterministically allocated mapped port; traffic
// arriving for the NAT address is translated back through the same table.
// Port mapping is strictly sequential from PortBase, so a replayed run
// builds a byte-identical translation table.

// NATDefaults.
const (
	DefaultNATPortBase   = 20000
	DefaultNATMaxEntries = 4096
)

// NATConfig configures a source-NAT service.
type NATConfig struct {
	// Addr is the translated source address. It must not be any interface
	// address of the gateway: packets for it have to reach the forwarding
	// hook (local delivery would swallow them before translation).
	Addr view.IP4
	// InsideCIDR selects outbound traffic to translate, e.g. "10.0.1.0/24".
	InsideCIDR string
	// PortBase is the first mapped port (DefaultNATPortBase when zero).
	PortBase uint16
	// MaxEntries bounds the translation table (DefaultNATMaxEntries when
	// zero); flows beyond the bound are dropped and counted.
	MaxEntries int
}

type natKey struct {
	addr  uint32
	port  uint16
	proto uint8
}

// NAT is the translation state shared by the outbound and inbound rules.
type NAT struct {
	base     filter.Base
	addr     view.IP4
	portBase uint16
	max      int

	fwd map[natKey]int // original flow -> slot
	rev []natKey       // slot -> original flow; mapped port = portBase + slot

	exhausted uint64 // flows dropped because the table was full
	unmatched uint64 // inbound packets with no translation entry
}

// NewNAT creates the service and its match-action table. The table holds an
// inbound rule (dst == Addr: reverse translation) and an outbound rule
// (src in InsideCIDR: allocate/lookup a mapping and rewrite).
func NewNAT(name string, base filter.Base, cfg NATConfig) (*NAT, *Table, error) {
	if cfg.PortBase == 0 {
		cfg.PortBase = DefaultNATPortBase
	}
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = DefaultNATMaxEntries
	}
	n := &NAT{
		base:     base,
		addr:     cfg.Addr,
		portBase: cfg.PortBase,
		max:      cfg.MaxEntries,
		fwd:      make(map[natKey]int),
	}
	tb := NewTable(name)
	in, err := NewRule("nat-in", fmt.Sprintf("ip.dst == %d.%d.%d.%d",
		cfg.Addr[0], cfg.Addr[1], cfg.Addr[2], cfg.Addr[3]), base,
		ActionFunc{Label: "nat-in", Fn: n.inbound})
	if err != nil {
		return nil, nil, err
	}
	out, err := NewRule("nat-out", "ip.src in "+cfg.InsideCIDR, base,
		ActionFunc{Label: "nat-out", Fn: n.outbound})
	if err != nil {
		return nil, nil, err
	}
	tb.Add(in).Add(out)
	return n, tb, nil
}

// Occupancy reports live translation entries.
func (n *NAT) Occupancy() int { return len(n.rev) }

// Exhausted reports flows dropped because the table was full.
func (n *NAT) Exhausted() uint64 { return n.exhausted }

// Unmatched reports inbound packets for the NAT address with no entry.
func (n *NAT) Unmatched() uint64 { return n.unmatched }

// outbound translates a flow leaving the inside network.
func (n *NAT) outbound(t *sim.Task, p *Packet) Verdict {
	ft, ok := ExtractTuple(p.Buf, p.Base)
	if !ok || ft.Proto != view.IPProtoUDP && ft.Proto != view.IPProtoTCP {
		return NextTable // not translatable; pass through
	}
	k := natKey{addr: ft.Src, port: ft.SPort, proto: ft.Proto}
	slot, ok := n.fwd[k]
	if !ok {
		if len(n.rev) >= n.max {
			n.exhausted++
			return Drop
		}
		slot = len(n.rev)
		n.rev = append(n.rev, k)
		n.fwd[k] = slot
	}
	RewriteAddrPort(p, true, n.addr, n.portBase+uint16(slot), true)
	return NextTable
}

// inbound reverses the translation for traffic arriving at the NAT address.
func (n *NAT) inbound(t *sim.Task, p *Packet) Verdict {
	ft, ok := ExtractTuple(p.Buf, p.Base)
	if !ok || ft.Proto != view.IPProtoUDP && ft.Proto != view.IPProtoTCP {
		return NextTable
	}
	slot := int(ft.DPort) - int(n.portBase)
	if slot < 0 || slot >= len(n.rev) {
		n.unmatched++
		return Drop
	}
	k := n.rev[slot]
	RewriteAddrPort(p, false, view.IP4FromUint32(k.addr), k.port, true)
	return NextTable
}
