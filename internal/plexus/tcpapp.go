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
// costs.
type TCPApp struct {
	st   *Stack
	conn *tcp.Conn
	opts TCPAppOptions
}

// ConnectTCP performs an active open to dst:dstPort.
func (st *Stack) ConnectTCP(t *sim.Task, dst view.IP4, dstPort uint16, opts TCPAppOptions) (*TCPApp, error) {
	app := &TCPApp{st: st, opts: opts}
	st.Syscall(t, st.Host.Costs.SocketLayer, 0, 0)
	c, err := st.TCP.Connect(t, dst, dstPort, tcp.ConnOptions{
		Ephemeral: true,
		NoSack:    opts.NoSack,
		OnRecv: func(t *sim.Task, c *tcp.Conn, data []byte) {
			st.deliver(t, "tcp-app-recv:", app, data, view.IP4{}, 0)
		},
		OnEstablished: func(t *sim.Task, c *tcp.Conn) {
			app.conn = c
			app.control(t, opts.OnEstablished)
		},
		OnPeerFin: func(t *sim.Task, c *tcp.Conn) {
			app.control(t, opts.OnPeerFin)
		},
		OnClose: func(c *tcp.Conn, err error) {
			if opts.OnClose != nil {
				opts.OnClose(app, err)
			}
		},
	})
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
	lst, err := st.TCP.Listen(port, tcp.ConnOptions{Ephemeral: true}, nil)
	if err != nil {
		return nil, err
	}
	apps := make(map[*tcp.Conn]*TCPApp)
	// The hooks read app.opts at call time, so a connection's callbacks can
	// be replaced after accept (the user-level splice forwarder does this).
	lst.SetConnOptions(tcp.ConnOptions{
		Ephemeral: true,
		OnRecv: func(t *sim.Task, c *tcp.Conn, data []byte) {
			if app := apps[c]; app != nil {
				st.deliver(t, "tcp-app-recv:", app, data, view.IP4{}, 0)
			}
		},
		OnEstablished: func(t *sim.Task, c *tcp.Conn) {
			app := &TCPApp{st: st, conn: c, opts: opts}
			apps[c] = app
			app.control(t, accept)
			app.control(t, app.opts.OnEstablished)
		},
		OnPeerFin: func(t *sim.Task, c *tcp.Conn) {
			if app := apps[c]; app != nil {
				app.control(t, app.opts.OnPeerFin)
			}
		},
		OnClose: func(c *tcp.Conn, err error) {
			if app := apps[c]; app != nil {
				delete(apps, c)
				if app.opts.OnClose != nil {
					app.opts.OnClose(app, err)
				}
			}
		},
	})
	return lst, nil
}

// Options returns the connection's application-level options.
func (app *TCPApp) Options() TCPAppOptions { return app.opts }

// SetOptions replaces the connection's application-level callbacks; takes
// effect for subsequent deliveries.
func (app *TCPApp) SetOptions(o TCPAppOptions) { app.opts = o }

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
