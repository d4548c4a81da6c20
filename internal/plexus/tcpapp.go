package plexus

import (
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/view"
)

// TCPAppOptions configure application-level connections.
type TCPAppOptions struct {
	// OnRecv delivers stream bytes in order. The slice is valid only during
	// the call: copy what must outlive it.
	OnRecv func(t *sim.Task, conn *TCPApp, data []byte)
	// OnEstablished fires when the handshake completes.
	OnEstablished func(t *sim.Task, conn *TCPApp)
	// OnPeerFin fires at the end of the peer's stream.
	OnPeerFin func(t *sim.Task, conn *TCPApp)
	// OnClose fires at full termination.
	OnClose func(conn *TCPApp, err error)
	// NoSack withholds SACK from this connection's handshake, forcing
	// cumulative-ACK-only loss recovery.
	NoSack bool
}

// TCPApp is an application-level TCP connection with the host boundary's
// costs. It is its connection's tcp.App: the transport calls it, and it runs
// the callbacks in opts as application code.
type TCPApp struct {
	st   *Stack
	conn *tcp.Conn
	opts TCPAppOptions
}

// ConnectTCP performs an active open to dst:dstPort.
func (st *Stack) ConnectTCP(t *sim.Task, dst view.IP4, dstPort uint16, opts TCPAppOptions) (*TCPApp, error) {
	app := &TCPApp{st: st, opts: opts}
	st.Syscall(t, st.Host.Costs.SocketLayer, 0, 0)
	c, err := st.TCP.Connect(t, dst, dstPort, app, opts.NoSack)
	if err != nil {
		return nil, err
	}
	app.conn = c
	return app, nil
}

// ListenTCP accepts connections on port; accept receives the ready TCPApp
// after each handshake completes. Every accepted connection gets its own
// TCPApp wrapper sharing opts.
func (st *Stack) ListenTCP(port uint16, opts TCPAppOptions, accept func(t *sim.Task, conn *TCPApp)) (*tcp.Listener, error) {
	return st.TCP.Listen(port, func(t *sim.Task, c *tcp.Conn) tcp.App {
		app := &TCPApp{st: st, conn: c, opts: opts}
		app.control(t, accept)
		return app
	})
}

// Options returns the connection's application-level options.
func (app *TCPApp) Options() TCPAppOptions { return app.opts }

// SetOptions replaces the connection's application-level callbacks; takes
// effect for subsequent deliveries.
func (app *TCPApp) SetOptions(o TCPAppOptions) { app.opts = o }

// The tcp.App methods read app.opts when the transport calls them, so
// callbacks replaced by SetOptions after connect or accept take effect (the
// user-level splice forwarder relies on this).

// Established runs OnEstablished as application code.
func (app *TCPApp) Established(t *sim.Task) { app.control(t, app.opts.OnEstablished) }

// Recv hands stream bytes to the application across the host boundary.
func (app *TCPApp) Recv(t *sim.Task, data []byte) {
	app.st.deliver(t, "tcp-app-recv:", app, data, view.IP4{}, 0)
}

// PeerFin runs OnPeerFin as application code.
func (app *TCPApp) PeerFin(t *sim.Task) { app.control(t, app.opts.OnPeerFin) }

// Closed runs OnClose at once on every boundary: a teardown has no task to
// run application code in.
func (app *TCPApp) Closed(err error) {
	if app.opts.OnClose != nil {
		app.opts.OnClose(app, err)
	}
}

// recv runs the application's callback. The callback is read now, so one
// replaced by SetOptions takes effect for data already queued.
func (app *TCPApp) recv(t *sim.Task, data []byte, _ view.IP4, _ uint16) {
	if app.opts.OnRecv != nil {
		app.opts.OnRecv(t, app, data)
	}
}

// Send writes data to the stream: a write(2) on DIGITAL UNIX.
func (app *TCPApp) Send(t *sim.Task, data []byte) error {
	app.st.Syscall(t, app.st.Host.Costs.SocketLayer, len(data), 0)
	return app.conn.Send(t, data)
}

// Close ends the send side (FIN after buffered data).
func (app *TCPApp) Close(t *sim.Task) {
	app.st.Syscall(t, 0, 0, 0)
	app.conn.Close(t)
}

// Conn exposes the underlying transport connection.
func (app *TCPApp) Conn() *tcp.Conn { return app.conn }

// State returns the transport state.
func (app *TCPApp) State() tcp.State { return app.conn.State() }
