// The telemetry sampling hook. It lives next to the setState choke point
// (audit.go) and follows the same philosophy: the transport exports cheap,
// allocation-free views of per-connection state and leaves policy — which
// series to keep, what to alarm on — to the telemetry plane, which cannot be
// imported from here (it sits above the transport).
//
// Two pieces make periodic whole-stack sampling deterministic and free:
//
//   - EachConn iterates the manager's creation-ordered connection list, not
//     the demux map, so probe order (and therefore every exported byte) is
//     identical run to run at any -parallel or -shards setting.
//   - Each Conn carries one opaque probe tag. The telemetry probe stashes
//     its per-connection series handles there on first sight (the only
//     allocation, amortized over the connection's life) and the per-tick
//     path is pure field reads.
package tcp

import "plexus/internal/sim"

// HostName returns the precomputed host label (the CPU name).
func (m *Manager) HostName() string { return m.hostName }

// EachConn calls fn for every live connection in creation order.
func (m *Manager) EachConn(fn func(*Conn)) {
	for _, c := range m.connList {
		if c != nil {
			fn(c)
		}
	}
}

// SetProbeTag attaches an opaque per-connection slot for the telemetry
// probe; the tag dies with the TCB.
func (c *Conn) SetProbeTag(tag any) { c.probeTag = tag }

// ProbeTag returns the slot set by SetProbeTag (nil if unset).
func (c *Conn) ProbeTag() any { return c.probeTag }

// SndWnd returns the peer-advertised send window.
func (c *Conn) SndWnd() uint32 { return c.snd.wnd }

// Cwnd returns the congestion window.
func (c *Conn) Cwnd() uint32 { return c.snd.cwnd }

// Ssthresh returns the slow-start threshold.
func (c *Conn) Ssthresh() uint32 { return c.snd.ssthresh }

// RcvWnd returns the advertised receive window.
func (c *Conn) RcvWnd() uint32 { return c.rcv.wnd }

// BytesInFlight returns snd.nxt - snd.una: sequence space sent but not yet
// acknowledged (SYN and FIN each count one).
func (c *Conn) BytesInFlight() uint32 { return c.snd.nxt - c.snd.una }

// AckedBytes returns snd.una - iss: cumulative forward progress in sequence
// space. A frozen AckedBytes with nonzero BytesInFlight is the no-progress
// watchdog's trigger condition.
func (c *Conn) AckedBytes() uint32 { return c.snd.una - c.snd.iss }

// SRTT returns the smoothed round-trip estimate (0 before the first sample).
func (c *Conn) SRTT() sim.Time { return c.srtt }

// CCName returns the congestion-control algorithm bound to the connection.
func (c *Conn) CCName() string { return c.cc.Name() }

// Recovery returns the sender's loss-recovery phase.
func (c *Conn) Recovery() RecoveryState { return c.recovery }

// SackedBytes returns the sequence space the peer has selectively
// acknowledged above snd.una.
func (c *Conn) SackedBytes() uint32 { return c.sb.sackedBytes() }
