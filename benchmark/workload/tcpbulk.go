package workload

import (
	"fmt"

	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/tcp"
)

// tcp-bulk sizes. One repetition streams bulkBytes over one connection
// between two Plexus hosts on the DEC T3 model.
const (
	bulkBytes = 128 << 20
	bulkChunk = 64 << 10 // one op
	// The writer keeps bulkBuffered bytes queued in the connection and
	// looks again every bulkTopUp; at T3 speed the queue drains ~110 KB
	// between looks, so the wire never idles and the stream is never held
	// in memory.
	bulkBuffered = 1 << 20
	bulkTopUp    = 20 * sim.Millisecond
	bulkHorizon  = 30 * 60 * sim.Second
)

// streamSink is the receiving side of a bulk stream: it checks every
// delivered byte against the seeded pattern and records one op per chunk,
// timed from the previous chunk boundary.
type streamSink struct {
	pat     *streamPattern
	rec     *recorder
	w       *world
	sim     *sim.Sim
	got     uint64
	lastOp  sim.Time
	lastAt  sim.Time
	corrupt bool
}

func (s *streamSink) deliver(now sim.Time, data []byte) {
	if !s.corrupt && !s.pat.matches(s.got, data) {
		s.corrupt = true
		s.rec.fail("stream differs from pattern in [%d,%d)", s.got, s.got+uint64(len(data)))
	}
	before := s.got / bulkChunk
	s.got += uint64(len(data))
	s.lastAt = now
	for c := before; c < s.got/bulkChunk; c++ {
		if s.corrupt {
			s.rec.fail("chunk %d delivered after corruption", c)
		} else {
			s.rec.done(now-s.lastOp, bulkChunk, uint64(s.pat.next(c*bulkChunk, 8)[0])|c<<8)
		}
		s.lastOp = now
		s.w.samplePending(s.sim)
	}
}

// streamSource keeps a connection's send buffer topped up from the pattern
// until total bytes are written, then closes the sending side.
type streamSource struct {
	host    *plexus.Stack
	app     *plexus.TCPApp
	pat     *streamPattern
	total   uint64 // 0 = never stop
	written uint64
	closed  bool
}

func streamTopUp(a any) {
	s := a.(*streamSource)
	if s.closed {
		return
	}
	s.host.Host.CPU.SubmitAtArg(s.host.Host.Sim.Now(), sim.PrioKernel, "stream-write", streamWrite, s)
	s.host.Host.Sim.AfterArg(bulkTopUp, "stream-topup", streamTopUp, s)
}

func streamWrite(t *sim.Task, a any) { a.(*streamSource).write(t) }

func (s *streamSource) write(t *sim.Task) {
	if s.closed || s.app == nil || s.app.State() != tcp.StateEstablished {
		return
	}
	for s.app.Conn().SendBufBytes() < bulkBuffered && (s.total == 0 || s.written < s.total) {
		n := bulkChunk
		if s.total != 0 && s.total-s.written < uint64(n) {
			n = int(s.total - s.written)
		}
		b := s.pat.next(s.written, n)
		if err := s.app.Send(t, b); err != nil {
			return
		}
		s.written += uint64(len(b))
	}
	if s.total != 0 && s.written >= s.total {
		s.closed = true
		s.app.Close(t)
	}
}

type bulkRig struct {
	w    *world
	net  *plexus.Network
	src  *streamSource
	sink *streamSink
}

func buildTCPBulk(p Params, pat *streamPattern, rec *recorder, total uint64) (*bulkRig, error) {
	n, client, server, err := plexus.TwoHosts(p.Seed, netdev.DECT3Model(), SpinHost("client"), SpinHost("server"))
	if err != nil {
		return nil, err
	}
	w := &world{sims: []*sim.Sim{n.Sim}, stacks: n.Hosts, servers: []*plexus.Stack{server}, connsOpened: 1}
	if p.Sink != nil {
		w.attachAudit()
	}
	rig := &bulkRig{w: w, net: n,
		src:  &streamSource{host: client, pat: pat, total: total},
		sink: &streamSink{pat: pat, rec: rec, w: w, sim: n.Sim}}
	_, err = server.ListenTCP(5001, plexus.TCPAppOptions{
		OnRecv:    func(t *sim.Task, conn *plexus.TCPApp, data []byte) { rig.sink.deliver(t.Now(), data) },
		OnPeerFin: func(t *sim.Task, conn *plexus.TCPApp) { conn.Close(t) },
	}, nil)
	if err != nil {
		return nil, err
	}
	var dialErr error
	client.Spawn("dial", func(t *sim.Task) {
		rig.src.app, dialErr = client.ConnectTCP(t, server.Addr(), 5001, plexus.TCPAppOptions{})
	})
	// Set-up ends with the handshake done: the measured window is the
	// established stream.
	n.Sim.RunUntil(5 * sim.Millisecond)
	if dialErr != nil {
		return nil, dialErr
	}
	if rig.src.app == nil || rig.src.app.State() != tcp.StateEstablished {
		return nil, fmt.Errorf("tcp-bulk: handshake not complete after 5 ms")
	}
	w.tracked = append(w.tracked, rig.src.app.Conn())
	return rig, nil
}

func runTCPBulk(p Params) (*Result, error) {
	total := uint64(float64(bulkBytes)*p.Size) / bulkChunk * bulkChunk
	if total < 16*bulkChunk {
		total = 16 * bulkChunk
	}
	pat := newStreamPattern(p.Seed, 1)
	var rec *recorder
	rig, setup, err := timedSetup(256, func() (*bulkRig, error) {
		rec = newRecorder(int(total / bulkChunk))
		return buildTCPBulk(p, pat, rec, total)
	})
	if err != nil {
		return nil, err
	}
	w, s := rig.w, rig.net.Sim
	w.install(p.Sink)
	run := measured{w: w, rec: rec, setup: setup}
	run.begin()
	start := s.Now()
	rig.sink.lastOp = start
	s.AtArg(start, "stream-topup", streamTopUp, rig.src)
	// The stream closes itself when the last byte is written; the run then
	// drains FINs and the 2·MSL timer, so teardown is inside the window.
	s.RunUntil(bulkHorizon)
	run.end()
	run.window = rig.sink.lastAt - start
	if rig.sink.got != total {
		rec.fail("transfer incomplete: %d of %d bytes", rig.sink.got, total)
	}
	for _, st := range w.stacks {
		if n := st.TCP.NumConns(); n != 0 {
			rec.fail("%s: %d connections still open after close", st.Name(), n)
		}
	}
	if run.window <= 0 {
		return nil, fmt.Errorf("tcp-bulk: oracle could not run: nothing delivered")
	}
	return run.result(nil)
}
