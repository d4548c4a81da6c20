package plexus

import (
	"plexus/internal/mbuf"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/udp"
	"plexus/internal/view"
)

// This file is the application side of the host's osmodel.Boundary. A Plexus
// application is a kernel extension: the dispatcher runs its handlers and its
// sends call straight into the protocol graph, with no trap and no copy. A
// DIGITAL UNIX application is a user process, and crosses the boundary at two
// choke points: Syscall on the way in, deliver and control on the way out.

// Syscall charges a DIGITAL UNIX system call: the trap plus extra kernel work
// (the socket layer, say), then copying in bytes in and out bytes out across
// the boundary. A Plexus extension calls the kernel directly and pays none.
func (st *Stack) Syscall(t *sim.Task, extra sim.Time, in, out int) {
	if st.Host.Boundary != osmodel.DigitalUnix {
		return
	}
	c := &st.Host.Costs
	t.ChargeProf(sim.ProfTrap, "syscall", c.Syscall+extra)
	t.ChargeBytesProf(sim.ProfCopy, "copyin", in, c.CopyPerByte)
	t.ChargeBytesProf(sim.ProfCopy, "copyout", out, c.CopyPerByte)
}

// appSink is application code that receives data: a UDPApp or a TCPApp.
type appSink interface {
	recv(t *sim.Task, data []byte, src view.IP4, srcPort uint16)
}

// userWake is work queued for a DIGITAL UNIX process the kernel has woken:
// received data for to, or, when ctl is set, a TCP control callback for the
// *TCPApp in to. Records and their buffers recycle through Stack.wakeFree.
type userWake struct {
	st      *Stack
	to      appSink
	ctl     func(*sim.Task, *TCPApp)
	data    []byte
	src     view.IP4
	srcPort uint16
}

// wake charges the kernel's side of waking to's DIGITAL UNIX process and
// queues a record, filled in by the caller, for the process (task prefix+host).
func (st *Stack) wake(t *sim.Task, prefix string, to appSink, kernel sim.Time) *userWake {
	t.ChargeProf(sim.ProfTrap, "socket", kernel)
	w := pop(&st.wakeFree)
	w.st, w.to = st, to
	st.Host.CPU.SubmitAtArg(t.Now(), sim.PrioUser, st.Host.Label(prefix, st.Name()), userTask, w)
	return w
}

// userTask is the woken process: it switches in and, for data, returns from
// its recv trap with the bytes copied out.
func userTask(ut *sim.Task, a any) {
	w := a.(*userWake)
	st, c := w.st, &w.st.Host.Costs
	if w.ctl != nil {
		ut.ChargeProf(sim.ProfTrap, "syscall", c.CtxSwitch)
		w.ctl(ut, w.to.(*TCPApp))
	} else {
		ut.ChargeProf(sim.ProfTrap, "syscall", c.CtxSwitch+c.Syscall)
		ut.ChargeBytesProf(sim.ProfCopy, "copyout", len(w.data), c.CopyPerByte)
		w.to.recv(ut, w.data, w.src, w.srcPort)
	}
	w.to, w.ctl = nil, nil
	st.wakeFree = append(st.wakeFree, w)
}

// deliver hands received data to application code. A Plexus extension runs
// now, in t, on the caller's bytes. A DIGITAL UNIX process is woken: the
// kernel pays socket-layer work and the wakeup here, and the bytes are copied
// into the record because the process runs after the caller reuses them.
func (st *Stack) deliver(t *sim.Task, prefix string, to appSink, data []byte, src view.IP4, srcPort uint16) {
	if st.Host.Boundary != osmodel.DigitalUnix {
		to.recv(t, data, src, srcPort)
		return
	}
	c := &st.Host.Costs
	w := st.wake(t, prefix, to, c.SocketLayer+c.Wakeup)
	w.data = append(w.data[:0], data...)
	w.src, w.srcPort = src, srcPort
}

// control runs a control callback (nil = none) as application code: inline
// on Plexus; on DIGITAL UNIX, a wakeup, then a context switch in the woken
// process.
func (app *TCPApp) control(t *sim.Task, fn func(*sim.Task, *TCPApp)) {
	st := app.st
	switch {
	case fn == nil:
	case st.Host.Boundary != osmodel.DigitalUnix:
		fn(t, app)
	default:
		st.wake(t, "tcp-app-ctl:", app, st.Host.Costs.Wakeup).ctl = fn
	}
}

// pop takes a recycled record off a free list, or makes a fresh one.
func pop[T any](free *[]*T) *T {
	if n := len(*free); n > 0 {
		x := (*free)[n-1]
		*free = (*free)[:n-1]
		return x
	}
	return new(T)
}

// UDPAppRecv is the application-level receive callback: payload bytes, the
// peer address, and the task the handler runs in. On every boundary the
// payload is valid only during the call: copy what must outlive it.
type UDPAppRecv func(t *sim.Task, payload []byte, src view.IP4, srcPort uint16)

// UDPAppOptions configure OpenUDP: the endpoint options of the UDP manager,
// passed straight through.
type UDPAppOptions = udp.EndpointOptions

// UDPApp is an application endpoint bound through the UDP protocol manager,
// with the host boundary's costs applied on both paths.
type UDPApp struct {
	st     *Stack
	ep     *udp.Endpoint
	onRecv UDPAppRecv
	// recvBuf is reused across deliveries (the payload is only borrowed by
	// the callback), keeping the steady-state receive path allocation-free.
	recvBuf []byte
}

// OpenUDP opens an application endpoint; like every UDP endpoint its
// receive handler is EPHEMERAL, as interrupt-mode stacks require (§3.3).
func (st *Stack) OpenUDP(opts UDPAppOptions, onRecv UDPAppRecv) (*UDPApp, error) {
	app := &UDPApp{st: st, onRecv: onRecv}
	ep, err := st.UDP.Open(opts, app.deliver)
	if err != nil {
		return nil, err
	}
	app.ep = ep
	return app, nil
}

// deliver copies a datagram out of its mbuf chain and hands it to the
// application.
func (app *UDPApp) deliver(t *sim.Task, payload *mbuf.Mbuf, src view.IP4, srcPort uint16) {
	n := payload.PktLen()
	if cap(app.recvBuf) < n {
		app.recvBuf = make([]byte, n)
	}
	data := app.recvBuf[:n]
	err := payload.CopyTo(0, data)
	payload.Free()
	if err == nil {
		app.st.deliver(t, "app-recv:", app, data, src, srcPort)
	}
}

// recv runs the application's callback.
func (app *UDPApp) recv(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
	if app.onRecv != nil {
		app.onRecv(t, data, src, srcPort)
	}
}

// Send transmits payload to dst:dstPort: a sendto(2) on DIGITAL UNIX.
func (app *UDPApp) Send(t *sim.Task, dst view.IP4, dstPort uint16, payload []byte) error {
	st := app.st
	st.Syscall(t, st.Host.Costs.SocketLayer, len(payload), 0)
	m := st.Host.Pool.FromBytes(payload, 64)
	return app.ep.Send(t, dst, dstPort, m)
}
