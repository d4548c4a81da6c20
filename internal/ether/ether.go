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
	nic   *netdev.NIC
	disp  *event.Dispatcher
	raise event.Raiser
	pool  *mbuf.Pool
	cpu   *sim.CPU
	costs osmodel.Costs
	// sendRef is the resolved SendEvent handle for the per-frame tap check.
	sendRef *event.Ref
}

// Config wires a Layer.
type Config struct {
	NIC   *netdev.NIC
	Disp  *event.Dispatcher
	Raise event.Raiser
	Pool  *mbuf.Pool
	CPU   *sim.CPU
	Costs osmodel.Costs
	// RequireEphemeral makes RecvEvent reject non-EPHEMERAL handlers;
	// stacks whose receive path runs at interrupt level set this.
	RequireEphemeral bool
}

// New declares the Ethernet events on the host dispatcher and returns the
// layer. It must be called once per interface per dispatcher.
func New(cfg Config) (*Layer, error) {
	if err := cfg.Disp.Declare(RecvEvent, event.Options{RequireEphemeral: cfg.RequireEphemeral, NoMatch: dropNoHandler}); err != nil {
		return nil, err
	}
	if err := cfg.Disp.Declare(SendEvent, event.Options{}); err != nil {
		return nil, err
	}
	return &Layer{
		nic:     cfg.NIC,
		disp:    cfg.Disp,
		raise:   cfg.Raise,
		pool:    cfg.Pool,
		cpu:     cfg.CPU,
		costs:   cfg.Costs,
		sendRef: cfg.Disp.Ref(SendEvent),
	}, nil
}

// CPUSubmit schedules kernel-priority protocol work (timer-driven
// retransmissions and the like) on the host CPU.
func (l *Layer) CPUSubmit(label string, fn func(*sim.Task)) {
	l.cpu.Submit(sim.PrioKernel, label, fn)
}

// RaiseRef raises an event through the stack's configured raise path; upper
// layers use it to push packets to the next node of the graph.
func (l *Layer) RaiseRef(t *sim.Task, r *event.Ref, m *mbuf.Mbuf) {
	l.raise.RaiseRef(t, r, m)
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
	t.ChargeProf(sim.ProfProto, "ether", l.costs.EtherProc)
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
		l.raise.RaiseRef(t, l.sendRef, fm)
	}
	return l.nic.Transmit(t, fm)
}

// InstallRecv is the manager interface for attaching a protocol (or an
// application extension such as active messages) to incoming frames. The
// guard typically discriminates on the Ethernet type field. If the event was
// declared RequireEphemeral, non-EPHEMERAL handlers are rejected, and
// allotment bounds each invocation.
func (l *Layer) InstallRecv(guard event.Guard, h event.Handler, allotment sim.Time) (*event.Binding, error) {
	return l.disp.Install(RecvEvent, guard, h, allotment)
}

// InstallSendTap attaches an observer to outgoing frames.
func (l *Layer) InstallSendTap(guard event.Guard, h event.Handler) (*event.Binding, error) {
	return l.disp.Install(SendEvent, guard, h, 0)
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
