// Package ether implements the Ethernet layer of the Plexus protocol graph
// and its protocol manager. The manager owns the Ethernet.PacketRecv event —
// the event the paper's Figure 2 active-message extension installs on — and
// enforces the §3.3 policy that handlers delegated interrupt-level work must
// be EPHEMERAL.
package ether

import (
	"fmt"

	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Protocol-graph event names owned by the Ethernet layer.
const (
	// RecvEvent is raised by the device driver for every accepted frame.
	RecvEvent event.Name = "Ethernet.PacketRecv"
	// SendEvent is raised (when observed) for every outgoing frame, the
	// hook point for send-side extensions.
	SendEvent event.Name = "Ethernet.PacketSend"
)

// Layer is the Ethernet protocol node and manager for one interface.
type Layer struct {
	host *osmodel.Host
	nic  *netdev.NIC
	// sendRef is the resolved SendEvent handle for the per-frame tap check.
	sendRef *event.Ref
}

// New declares the Ethernet events on the host's dispatcher and returns the
// layer for nic. It must be called once per interface per dispatcher. On a
// host whose receive path runs at interrupt level, RecvEvent rejects
// non-EPHEMERAL handlers (§3.3).
func New(host *osmodel.Host, nic *netdev.NIC) (*Layer, error) {
	if err := host.Disp.Declare(RecvEvent, event.Options{RequireEphemeral: host.RequireEphemeral(), NoMatch: dropNoHandler}); err != nil {
		return nil, err
	}
	if err := host.Disp.Declare(SendEvent, event.Options{}); err != nil {
		return nil, err
	}
	return &Layer{host: host, nic: nic, sendRef: host.Disp.Ref(SendEvent)}, nil
}

// MAC returns the interface hardware address.
func (l *Layer) MAC() view.MAC { return l.nic.MAC() }

// MTU returns the interface MTU (payload bytes after the Ethernet header).
func (l *Layer) MTU() int { return l.nic.MTU() }

// NIC returns the underlying device.
func (l *Layer) NIC() *netdev.NIC { return l.nic }

// Send encapsulates m (consumed) in an Ethernet frame to dst and transmits
// it. The source address is always overwritten with the interface address —
// the cheap anti-spoofing policy of §3.1.
func (l *Layer) Send(t *sim.Task, dst view.MAC, etherType uint16, m *mbuf.Mbuf) error {
	t.ChargeProf(sim.ProfProto, "ether", l.host.Costs.EtherProc)
	if hdr := m.Hdr(); hdr != nil {
		t.Hop(hdr.Span, "ether", "send", hdr.Len)
	}
	fm, err := m.Prepend(view.EthernetHdrLen)
	if err != nil {
		m.Free()
		return fmt.Errorf("ether: %w", err)
	}
	b, err := fm.MutableBytes()
	if err != nil {
		fm.Free()
		return fmt.Errorf("ether: %w", err)
	}
	eth, err := view.Ethernet(b)
	if err != nil {
		fm.Free()
		return fmt.Errorf("ether: %w", err)
	}
	eth.SetDst(dst)
	eth.SetSrc(l.nic.MAC())
	eth.SetEtherType(etherType)
	if l.sendRef.HandlerCount() > 0 {
		l.sendRef.Raise(t, fm) // inline on every boundary: the frame is freed once sent
	}
	return l.nic.Transmit(t, fm)
}

// InstallRecv is the manager interface for attaching a protocol (or an
// application extension such as active messages) to incoming frames. The
// guard typically discriminates on the Ethernet type field. If the event was
// declared RequireEphemeral, non-EPHEMERAL handlers are rejected, and
// allotment bounds each invocation.
func (l *Layer) InstallRecv(guard event.Guard, h event.Handler, allotment sim.Time) (*event.Binding, error) {
	return l.host.Disp.Install(RecvEvent, guard, h, allotment)
}

// TypeGuard returns a guard matching frames with the given Ethernet type —
// the guard of the paper's Figure 2, expressed with a view.
func TypeGuard(etherType uint16) event.Guard {
	return func(t *sim.Task, m *mbuf.Mbuf) bool {
		eth, err := view.Ethernet(m.Bytes())
		if err != nil {
			return false
		}
		return eth.EtherType() == etherType
	}
}

// dropNoHandler is Ethernet.PacketRecv's NoMatch action: a frame no protocol
// took is freed.
func dropNoHandler(t *sim.Task, m *mbuf.Mbuf) {
	if hdr := m.Hdr(); hdr != nil {
		t.Hop(hdr.Span, "wire", "drop-nohandler", hdr.Len)
	}
	m.Free()
}
