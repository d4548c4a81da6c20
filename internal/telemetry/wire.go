// Probe wiring: Attach* helpers that connect stack components to an Engine.
// Each helper creates its series and (optionally) watchdog rules up front,
// builds any visitor closures once, and registers a probe whose per-tick
// work is pure field reads plus ring pushes — nothing on the sampling path
// allocates.
package telemetry

import (
	"fmt"
	"strconv"

	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/sim"
	"plexus/internal/tcp"
)

// AttachPool samples the host's mbuf gauge: live mbufs/clusters and their
// high-water marks. If capMbufs > 0, a near-cap watchdog fires the moment
// the high-water mark reaches 95% of it.
func AttachPool(e *Engine, host string, p *mbuf.Pool, capMbufs int64) {
	inUse := e.Series("mbuf.in_use", host, "")
	clusters := e.Series("mbuf.clusters_in_use", host, "")
	hiWater := e.Series("mbuf.high_water", host, "")
	e.Register("mbuf:"+host, func(s *Sample) {
		g := p.Gauge()
		s.Observe(inUse, g.InUse)
		s.Observe(clusters, g.InUseClusters)
		s.Observe(hiWater, g.HighWater)
	})
	if capMbufs > 0 {
		e.Watch(Rule{
			Name: "mbuf.near_cap", Kind: RuleNearCap,
			Watch: hiWater, Threshold: capMbufs, Pct: 95,
		})
	}
}

// AttachLink samples one cable: cumulative frames, bytes, busy
// (serialization) time, and drops from every cause the link distinguishes.
// Utilization over any window is the busy-time delta divided by the window.
func AttachLink(e *Engine, name string, l *netdev.Link) {
	frames := e.Series("link.tx_frames", name, "")
	bytes := e.Series("link.tx_bytes", name, "")
	busy := e.Series("link.busy_ns", name, "")
	drops := e.Series("link.drops", name, "")
	e.Register("link:"+name, func(s *Sample) {
		s.Observe(frames, int64(l.Frames()))
		s.Observe(bytes, int64(l.Bytes()))
		s.Observe(busy, int64(l.BusyTime()))
		s.Observe(drops, int64(l.Dropped()+l.DownDrops()))
	})
}

// AttachSwitch samples every port's output-queue depth, tail drops, and
// transmitted bytes. If pinWindow > 0, a pinned-at-cap watchdog per port
// fires when the queue has sat at capacity for the full window.
func AttachSwitch(e *Engine, sw *netdev.Switch, pinWindow sim.Time) {
	ports := sw.Ports()
	depth := make([]*Series, len(ports))
	drops := make([]*Series, len(ports))
	txb := make([]*Series, len(ports))
	for i, p := range ports {
		lbl := "port=" + strconv.Itoa(p.ID())
		depth[i] = e.Series("switch.queue_depth", sw.Name(), lbl)
		drops[i] = e.Series("switch.drops", sw.Name(), lbl)
		txb[i] = e.Series("switch.tx_bytes", sw.Name(), lbl)
		if pinWindow > 0 {
			e.Watch(Rule{
				Name: "switch.queue_pinned", Kind: RulePinnedAtCap,
				Watch: depth[i], Threshold: int64(sw.QueueCap()), Window: pinWindow,
			})
		}
	}
	e.Register("switch:"+sw.Name(), func(s *Sample) {
		now := s.At()
		for i, p := range ports {
			s.Observe(depth[i], int64(p.QueueDepth(now)))
			st := p.Stats()
			s.Observe(drops[i], int64(st.Drops))
			s.Observe(txb[i], int64(st.TxBytes))
		}
	})
}

// AttachSimQueue samples the simulator's event-queue length — per shard, the
// series the sharded scale experiments watch for imbalance.
func AttachSimQueue(e *Engine, name string, s *sim.Sim) {
	depth := e.Series("sim.queue_depth", name, "")
	e.Register("simq:"+name, func(sm *Sample) {
		sm.Observe(depth, int64(s.QueueLen()))
	})
}

// TCPOptions configures AttachTCP.
type TCPOptions struct {
	// StallWindow, when nonzero, arms a per-connection no-progress
	// watchdog: an alarm fires when AckedBytes has not advanced for the
	// full window while bytes remain in flight — the "no forward progress
	// for N·RTO" rule, with the window chosen by the caller.
	StallWindow sim.Time
}

// tcpConnSeries is the per-connection probe tag: series handles cached on
// the Conn so steady-state sampling is map-free and allocation-free.
type tcpConnSeries struct {
	cwnd, ssthresh, sndWnd, rcvWnd *Series
	inflight, acked                *Series
	srtt, rto                      *Series
	rexmits                        *Series
	recovery, sacked               *Series
	gen                            uint64 // last tick this connection was seen
}

// tcpProbe carries the per-tick visitor state for AttachTCP.
type tcpProbe struct {
	eng   *Engine
	mgr   *tcp.Manager
	opts  TCPOptions
	s     *Sample
	gen   uint64
	conns []*tcpConnSeries
}

func (tp *tcpProbe) visit(c *tcp.Conn) {
	t, ok := c.ProbeTag().(*tcpConnSeries)
	if !ok {
		// First sight of this connection: build and cache its series (and
		// stall rule). The one allocation per connection, off steady state.
		host := tp.mgr.HostName()
		raddr, rport := c.RemoteAddr()
		lbl := fmt.Sprintf("conn=%d-%d.%d.%d.%d:%d",
			c.LocalPort(), raddr[0], raddr[1], raddr[2], raddr[3], rport)
		t = &tcpConnSeries{
			cwnd:     tp.eng.Series("tcp.cwnd", host, lbl),
			ssthresh: tp.eng.Series("tcp.ssthresh", host, lbl),
			sndWnd:   tp.eng.Series("tcp.snd_wnd", host, lbl),
			rcvWnd:   tp.eng.Series("tcp.rcv_wnd", host, lbl),
			inflight: tp.eng.Series("tcp.bytes_in_flight", host, lbl),
			acked:    tp.eng.Series("tcp.acked_bytes", host, lbl),
			srtt:     tp.eng.Series("tcp.srtt_ns", host, lbl),
			rto:      tp.eng.Series("tcp.rto_ns", host, lbl),
			rexmits:  tp.eng.Series("tcp.retransmits", host, lbl),
			recovery: tp.eng.Series("tcp.recovery_state", host, lbl),
			sacked:   tp.eng.Series("tcp.sacked_bytes", host, lbl),
		}
		c.SetProbeTag(t)
		tp.conns = append(tp.conns, t)
		if tp.opts.StallWindow > 0 {
			tp.eng.Watch(Rule{
				Name: "tcp.no_progress", Kind: RuleNoProgress,
				Watch: t.acked, Guard: t.inflight, Window: tp.opts.StallWindow,
			})
		}
	}
	t.gen = tp.gen
	s := tp.s
	s.Observe(t.cwnd, int64(c.Cwnd()))
	s.Observe(t.ssthresh, int64(c.Ssthresh()))
	s.Observe(t.sndWnd, int64(c.SndWnd()))
	s.Observe(t.rcvWnd, int64(c.RcvWnd()))
	s.Observe(t.inflight, int64(c.BytesInFlight()))
	s.Observe(t.acked, int64(c.AckedBytes()))
	s.Observe(t.srtt, int64(c.SRTT()))
	s.Observe(t.rto, int64(c.RTO()))
	s.Observe(t.rexmits, int64(c.Stats().Retransmits))
	s.Observe(t.recovery, int64(c.Recovery()))
	s.Observe(t.sacked, int64(c.SackedBytes()))
}

// sweep retires connections that left the manager's list since the last
// tick (closed, reset, or timed out). A connection can disappear between
// samples with its bytes-in-flight series frozen at a nonzero value — the
// final FIN, say — which would hold the no-progress guard armed forever;
// one final zero marks the flight as drained and disarms the watchdog.
func (tp *tcpProbe) sweep(s *Sample) {
	for i := len(tp.conns) - 1; i >= 0; i-- {
		t := tp.conns[i]
		if t.gen == tp.gen {
			continue
		}
		s.Observe(t.inflight, 0)
		tp.conns[i] = tp.conns[len(tp.conns)-1]
		tp.conns = tp.conns[:len(tp.conns)-1]
	}
}

// AttachTCP samples every live connection's windows, bytes in flight,
// forward progress, RTT estimator, and retransmit count — the sampling hook
// beside the setState choke point. Connections are visited in creation
// order (deterministic) and each carries its cached series handles, so a
// tick over N established connections allocates nothing.
func AttachTCP(e *Engine, m *tcp.Manager, opts TCPOptions) {
	tp := &tcpProbe{eng: e, mgr: m, opts: opts}
	e.Register("tcp:"+m.HostName(), func(s *Sample) {
		tp.s = s
		tp.gen++
		m.EachConn(tp.visit)
		tp.sweep(s)
	})
}
