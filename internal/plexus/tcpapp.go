package plexus

import (
	"plexus/internal/osmodel"
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
	// AppRecvCost is charged per delivered chunk.
	AppRecvCost sim.Time
	// CC overrides the host's congestion-control algorithm for this
	// connection ("" = the host default).
	CC string
	// NoSack withholds SACK from this connection's handshake, forcing
	// cumulative-ACK-only loss recovery.
	NoSack bool
}

// TCPApp is an application-level TCP connection with personality costs.
type TCPApp struct {
	st   *Stack
	conn *tcp.Conn
	opts TCPAppOptions
}

func (st *Stack) connOptions(app *TCPApp, opts TCPAppOptions) tcp.ConnOptions {
	return tcp.ConnOptions{
		Ephemeral: true,
		CC:        opts.CC,
		NoSack:    opts.NoSack,
		OnRecv: func(t *sim.Task, c *tcp.Conn, data []byte) {
			app.deliver(t, data)
		},
		OnEstablished: func(t *sim.Task, c *tcp.Conn) {
			app.conn = c
			if opts.OnEstablished != nil {
				app.inAppContext(t, 0, func(task *sim.Task) { opts.OnEstablished(task, app) })
			}
		},
		OnPeerFin: func(t *sim.Task, c *tcp.Conn) {
			if opts.OnPeerFin != nil {
				app.inAppContext(t, 0, func(task *sim.Task) { opts.OnPeerFin(task, app) })
			}
		},
		OnClose: func(c *tcp.Conn, err error) {
			if opts.OnClose != nil {
				opts.OnClose(app, err)
			}
		},
	}
}

// ConnectTCP performs an active open to dst:dstPort.
func (st *Stack) ConnectTCP(t *sim.Task, dst view.IP4, dstPort uint16, opts TCPAppOptions) (*TCPApp, error) {
	app := &TCPApp{st: st, opts: opts}
	if st.Host.Personality == osmodel.Monolithic {
		t.ChargeProf(sim.ProfTrap, "syscall", st.Host.Costs.Syscall+st.Host.Costs.SocketLayer)
	}
	c, err := st.TCP.Connect(t, dst, dstPort, st.connOptions(app, opts))
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
				app.deliver(t, data)
			}
		},
		OnEstablished: func(t *sim.Task, c *tcp.Conn) {
			app := &TCPApp{st: st, conn: c, opts: opts}
			apps[c] = app
			if accept != nil {
				app.inAppContext(t, 0, func(task *sim.Task) { accept(task, app) })
			}
			if app.opts.OnEstablished != nil {
				app.inAppContext(t, 0, func(task *sim.Task) { app.opts.OnEstablished(task, app) })
			}
		},
		OnPeerFin: func(t *sim.Task, c *tcp.Conn) {
			if app := apps[c]; app != nil && app.opts.OnPeerFin != nil {
				app.inAppContext(t, 0, func(task *sim.Task) { app.opts.OnPeerFin(task, app) })
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

// deliver applies receive-side personality structure, then the app callback.
// On SPIN the callback runs here, on the transport's own view of the bytes —
// no copy, as an in-kernel extension sees packet data. On Monolithic the user
// process runs later, after the transport has reused the buffer data aliases,
// so the bytes are copied now: the copy across the user/kernel boundary that
// CopyPerByte charges for.
func (app *TCPApp) deliver(t *sim.Task, data []byte) {
	st := app.st
	if st.Host.Personality == osmodel.SPIN {
		app.recv(t, data)
		return
	}
	costs := st.Host.Costs
	t.ChargeProf(sim.ProfTrap, "socket", costs.SocketLayer+costs.Wakeup)
	var r *tcpAppRecv
	if n := len(st.tcpRecvFree); n > 0 {
		r = st.tcpRecvFree[n-1]
		st.tcpRecvFree = st.tcpRecvFree[:n-1]
	} else {
		r = &tcpAppRecv{}
	}
	r.app = app
	r.data = append(r.data[:0], data...)
	if st.tcpRecvLabel == "" {
		st.tcpRecvLabel = "tcp-app-recv:" + st.Name()
	}
	st.Host.CPU.SubmitAtArg(t.Now(), sim.PrioUser, st.tcpRecvLabel, tcpAppRecvTask, r)
}

// recv charges the application's per-chunk cost and runs its callback.
func (app *TCPApp) recv(t *sim.Task, data []byte) {
	if app.opts.AppRecvCost > 0 {
		t.Charge(app.opts.AppRecvCost)
	}
	if app.opts.OnRecv != nil {
		app.opts.OnRecv(t, app, data)
	}
}

// tcpAppRecv is one chunk of stream data queued for a Monolithic user
// process; records and their buffers recycle through Stack.tcpRecvFree.
type tcpAppRecv struct {
	app  *TCPApp
	data []byte
}

// tcpAppRecvTask is the woken user process returning from its recv trap.
func tcpAppRecvTask(ut *sim.Task, a any) {
	r := a.(*tcpAppRecv)
	app := r.app
	costs := app.st.Host.Costs
	ut.ChargeProf(sim.ProfTrap, "syscall", costs.CtxSwitch+costs.Syscall)
	ut.ChargeBytesProf(sim.ProfCopy, "copyout", len(r.data), costs.CopyPerByte)
	app.recv(ut, r.data)
	r.app = nil
	app.st.tcpRecvFree = append(app.st.tcpRecvFree, r)
}

// inAppContext runs a control callback with personality structure: inline on
// SPIN, as a woken user process on Monolithic.
func (app *TCPApp) inAppContext(t *sim.Task, nbytes int, fn func(task *sim.Task)) {
	st := app.st
	if st.Host.Personality == osmodel.SPIN {
		fn(t)
		return
	}
	costs := st.Host.Costs
	t.ChargeProf(sim.ProfTrap, "socket", costs.Wakeup)
	st.Host.CPU.SubmitAt(t.Now(), sim.PrioUser, "tcp-app-ctl:"+st.Name(), func(ut *sim.Task) {
		ut.ChargeProf(sim.ProfTrap, "syscall", costs.CtxSwitch)
		ut.ChargeBytesProf(sim.ProfCopy, "copyout", nbytes, costs.CopyPerByte)
		fn(ut)
	})
}

// Send writes data to the stream, applying send-side personality costs.
func (app *TCPApp) Send(t *sim.Task, data []byte) error {
	st := app.st
	if st.Host.Personality == osmodel.Monolithic {
		costs := st.Host.Costs
		t.ChargeProf(sim.ProfTrap, "syscall", costs.Syscall+costs.SocketLayer)
		t.ChargeBytesProf(sim.ProfCopy, "copyin", len(data), costs.CopyPerByte)
	}
	return app.conn.Send(t, data)
}

// Close ends the send side (FIN after buffered data).
func (app *TCPApp) Close(t *sim.Task) {
	if app.st.Host.Personality == osmodel.Monolithic {
		t.ChargeProf(sim.ProfTrap, "syscall", app.st.Host.Costs.Syscall)
	}
	app.conn.Close(t)
}

// Conn exposes the underlying transport connection.
func (app *TCPApp) Conn() *tcp.Conn { return app.conn }

// State returns the transport state.
func (app *TCPApp) State() tcp.State { return app.conn.State() }
