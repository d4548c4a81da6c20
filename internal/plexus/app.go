package plexus

import (
	"plexus/internal/mbuf"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/udp"
	"plexus/internal/view"
)

// This file implements the application-side endpoint wrappers that realize
// the structural difference between the two OS personalities:
//
//   - On SPIN, the application IS a kernel extension: its receive handler is
//     invoked directly by the dispatcher (in the interrupt, or on the kernel
//     thread that raised the event) and its sends call straight into the
//     protocol graph. No traps, no boundary copies.
//
//   - On Monolithic, the application is a user process: a received datagram
//     is queued at the socket, the process is woken, context-switched in,
//     and the payload copied out; every send is a trap plus a copyin plus
//     socket-layer work before the same protocol code runs.

// UDPAppRecv is the application-level receive callback: payload bytes, the
// peer address, and the task the handler runs in. The payload slice is
// BORROWED — on SPIN stacks it is the endpoint's reused receive buffer and is
// valid only for the duration of the callback. A callback that needs the
// bytes later must copy them.
type UDPAppRecv func(t *sim.Task, payload []byte, src view.IP4, srcPort uint16)

// UDPAppOptions configure OpenUDP.
type UDPAppOptions struct {
	// Port 0 allocates an ephemeral port.
	Port uint16
	// Remote/RemotePort connect the endpoint (guard filters the peer).
	Remote     view.IP4
	RemotePort uint16
	// DisableChecksum is the §1.1 application-specific UDP variant.
	DisableChecksum bool
	// AcceptMulticast admits datagrams to multicast groups.
	AcceptMulticast bool
	// Allotment bounds each receive invocation (EPHEMERAL time budget).
	Allotment sim.Time
	// AppRecvCost is charged per received datagram to model the
	// application's own processing (0 = charge nothing).
	AppRecvCost sim.Time
}

// UDPApp is an application endpoint bound through the UDP protocol manager,
// with personality-appropriate costs applied on both paths.
type UDPApp struct {
	st   *Stack
	ep   *udp.Endpoint
	opts UDPAppOptions
	// recvBuf is reused across SPIN-path deliveries (the payload is only
	// borrowed by the callback), keeping the steady-state receive path
	// allocation-free. recvLabel is the user-task label, built once.
	recvBuf   []byte
	recvLabel string
}

// OpenUDP opens an application endpoint. On interrupt-mode stacks the
// receive handler is installed EPHEMERAL, as §3.3 requires.
func (st *Stack) OpenUDP(opts UDPAppOptions, onRecv UDPAppRecv) (*UDPApp, error) {
	app := &UDPApp{st: st, opts: opts, recvLabel: "app-recv:" + st.Name()}
	epOpts := udp.EndpointOptions{
		Port:            opts.Port,
		Remote:          opts.Remote,
		RemotePort:      opts.RemotePort,
		DisableChecksum: opts.DisableChecksum,
		AcceptMulticast: opts.AcceptMulticast,
		Ephemeral:       true, // application handlers declare EPHEMERAL; see package doc
		Allotment:       opts.Allotment,
	}
	ep, err := st.UDP.Open(epOpts, func(t *sim.Task, payload *mbuf.Mbuf, src view.IP4, srcPort uint16) {
		app.deliver(t, payload, src, srcPort, onRecv)
	})
	if err != nil {
		return nil, err
	}
	app.ep = ep
	return app, nil
}

// deliver applies the personality's receive-side structure before running
// the application callback.
func (app *UDPApp) deliver(t *sim.Task, payload *mbuf.Mbuf, src view.IP4, srcPort uint16, onRecv UDPAppRecv) {
	st := app.st
	n := payload.PktLen()
	if st.Host.Personality == osmodel.SPIN {
		// In-kernel extension: the handler body runs right here — in the
		// interrupt task or on the kernel thread that raised us — and the
		// payload is borrowed from the endpoint's reused buffer, so the
		// steady-state receive path allocates nothing.
		if cap(app.recvBuf) < n {
			app.recvBuf = make([]byte, n)
		}
		data := app.recvBuf[:n]
		err := payload.CopyTo(0, data)
		payload.Free()
		if err != nil {
			return
		}
		if app.opts.AppRecvCost > 0 {
			t.Charge(app.opts.AppRecvCost)
		}
		if onRecv != nil {
			onRecv(t, data, src, srcPort)
		}
		return
	}
	// Monolithic: socket enqueue + wakeup in the kernel, then the user
	// process context-switches in, returns from its recv trap, and copies
	// the payload across the boundary. The copy must be private: the user
	// task runs later, after the shared receive buffer may be overwritten.
	data, err := payload.CopyData(0, n)
	payload.Free()
	if err != nil {
		return
	}
	costs := st.Host.Costs
	t.ChargeProf(sim.ProfTrap, "socket", costs.SocketLayer+costs.Wakeup)
	st.Host.CPU.SubmitAt(t.Now(), sim.PrioUser, app.recvLabel, func(ut *sim.Task) {
		ut.ChargeProf(sim.ProfTrap, "syscall", costs.CtxSwitch+costs.Syscall)
		ut.ChargeBytesProf(sim.ProfCopy, "copyout", len(data), costs.CopyPerByte)
		if app.opts.AppRecvCost > 0 {
			ut.Charge(app.opts.AppRecvCost)
		}
		if onRecv != nil {
			onRecv(ut, data, src, srcPort)
		}
	})
}

// Send transmits payload to dst:dstPort, applying send-side personality
// costs (trap + copyin + socket layer on Monolithic; nothing extra on SPIN).
func (app *UDPApp) Send(t *sim.Task, dst view.IP4, dstPort uint16, payload []byte) error {
	st := app.st
	if st.Host.Personality == osmodel.Monolithic {
		costs := st.Host.Costs
		t.ChargeProf(sim.ProfTrap, "syscall", costs.Syscall+costs.SocketLayer)
		t.ChargeBytesProf(sim.ProfCopy, "copyin", len(payload), costs.CopyPerByte)
	}
	m := st.Host.Pool.FromBytes(payload, 64)
	return app.ep.Send(t, dst, dstPort, m)
}
