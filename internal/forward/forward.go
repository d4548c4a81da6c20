// Package forward implements the paper's §5 protocol-forwarding experiment
// (Figure 7): a node installed in the Plexus protocol graph that redirects
// all data and control packets destined for a particular port to a secondary
// host, compared against a conventional user-level forwarder that splices two
// sockets together.
//
// The in-kernel forwarder operates below the transport layer: it rewrites
// addresses on whole IP datagrams (SYNs, FINs, RSTs and data alike) and
// re-emits them, so TCP's end-to-end connection establishment, termination,
// window, and congestion behaviour pass through untouched — exactly what the
// paper says the user-level forwarder cannot preserve. Each packet makes one
// trip through the bottom of one protocol stack.
//
// The user-level splice accepts the client connection, opens a second
// connection to the backend, and copies bytes between them in a user
// process: every packet climbs the full stack, crosses the user/kernel
// boundary twice, and descends the full stack again.
package forward

import (
	"errors"
	"fmt"

	"plexus/internal/event"
	"plexus/internal/fabric"
	"plexus/internal/filter"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// natBase is the first port used for rewritten flows.
const natBase = 61000

// rewriteCost models the per-packet work of the in-kernel node: a flow-table
// lookup plus an incremental checksum update.
const rewriteCost = 4 * sim.Microsecond

// Errors.
var (
	errNATFull   = errors.New("forward: NAT port space exhausted")
	errPortInUse = errors.New("forward: port in use")
)

// KernelStats counts in-kernel forwarder activity.
type KernelStats struct {
	Forwarded    uint64 // client → backend packets
	Returned     uint64 // backend → client packets
	FlowsCreated uint64
}

// flowKey identifies a client flow.
type flowKey struct {
	client     view.IP4
	clientPort uint16
}

type natEntry struct {
	key     flowKey
	natPort uint16
}

// Kernel is the in-kernel Plexus forwarder node for one service port.
type Kernel struct {
	st          *plexus.Stack
	proto       uint8
	servicePort uint16
	backend     view.IP4
	backendPort uint16
	// binding holds the service port's key on IP.PacketRecv, and each NAT
	// port's.
	binding *event.Binding

	flows   map[flowKey]*natEntry
	byNAT   map[uint16]*natEntry
	nextNAT uint16
	stats   KernelStats
	// scratch is the reusable copy of the datagram being rewritten.
	scratch []byte
}

// NewKernel installs a forwarder for proto (view.IPProtoTCP or
// view.IPProtoUDP) traffic to servicePort, redirecting it to
// backend:backendPort. The node takes the service port (and its NAT ports)
// from the local transport manager — the §3.1 multiple-implementations
// mechanism — by holding their keys on IP.PacketRecv with its one binding.
// It fails if the port is in use.
func NewKernel(st *plexus.Stack, proto uint8, servicePort uint16, backend view.IP4, backendPort uint16) (*Kernel, error) {
	k := &Kernel{
		st:          st,
		proto:       proto,
		servicePort: servicePort,
		backend:     backend,
		backendPort: backendPort,
		flows:       make(map[flowKey]*natEntry),
		byNAT:       make(map[uint16]*natEntry),
		nextNAT:     natBase,
	}
	if k.inUse(servicePort) {
		return nil, fmt.Errorf("%w: %d", errPortInUse, servicePort)
	}
	b, err := st.Host.Disp.InstallKey(ip.RecvEvent, ip.RecvKey(proto, servicePort),
		event.Ephemeral("forward.kernel", k.input), 0)
	if err != nil {
		return nil, err
	}
	k.binding = b
	return k, nil
}

// inUse reports whether the local transport uses port.
func (k *Kernel) inUse(port uint16) bool {
	if k.proto == view.IPProtoTCP {
		return k.st.TCP.InUse(port)
	}
	return k.st.UDP.InUse(port)
}

// Stats returns a snapshot of counters.
func (k *Kernel) Stats() KernelStats { return k.stats }

// ports reads (srcPort, dstPort) from the transport header.
func ports(pkt *mbuf.Mbuf, ipv view.IPv4View) (uint16, uint16, bool) {
	var hdr [4]byte
	if pkt.CopyTo(ipv.HdrLen(), hdr[:]) != nil {
		return 0, 0, false
	}
	return uint16(hdr[0])<<8 | uint16(hdr[1]), uint16(hdr[2])<<8 | uint16(hdr[3]), true
}

// input rewrites and re-emits one redirected datagram, entirely within the
// receive context.
func (k *Kernel) input(t *sim.Task, pkt *mbuf.Mbuf) {
	defer pkt.Free()
	t.Charge(rewriteCost)
	ipv, err := view.IPv4(pkt.Bytes())
	if err != nil {
		return
	}
	srcPort, dstPort, ok := ports(pkt, ipv)
	// A NAT port's key takes datagrams from anyone: only the backend's
	// return to a client.
	if !ok || dstPort != k.servicePort && ipv.Src() != k.backend {
		return
	}
	// Work on a private copy: the incoming chain is read-only. All
	// forwarding runs on this host's one CPU, so one scratch buffer serves
	// every packet.
	n := pkt.PktLen()
	if cap(k.scratch) < n {
		k.scratch = make([]byte, n)
	}
	buf := k.scratch[:n]
	if pkt.CopyTo(0, buf) != nil {
		return
	}
	if dstPort == k.servicePort {
		// Client → backend.
		fk := flowKey{client: ipv.Src(), clientPort: srcPort}
		e, okf := k.flows[fk]
		if !okf {
			natPort, err := k.allocNAT()
			if err != nil {
				return
			}
			e = &natEntry{key: fk, natPort: natPort}
			k.flows[fk] = e
			k.byNAT[natPort] = e
			k.stats.FlowsCreated++
		}
		if !k.rewrite(buf, k.backend, e.natPort, k.backendPort) {
			return
		}
		k.stats.Forwarded++
	} else {
		// Backend → client.
		e, okf := k.byNAT[dstPort]
		if !okf {
			return
		}
		if !k.rewrite(buf, e.key.client, k.servicePort, e.key.clientPort) {
			return
		}
		k.stats.Returned++
	}
	out := k.st.Host.Pool.FromBytes(buf, 0)
	out.Hdr().Span = pkt.Hdr().Span
	_ = k.st.IP.Forward(t, out) // consumes out, dropping what it cannot forward
}

func (k *Kernel) allocNAT() (uint16, error) {
	for i := 0; i < 2048; i++ {
		p := k.nextNAT
		k.nextNAT++
		if k.nextNAT == natBase+2048 {
			k.nextNAT = natBase
		}
		if _, used := k.byNAT[p]; !used && !k.inUse(p) &&
			k.st.Host.Disp.AddKey(k.binding, ip.RecvKey(k.proto, p)) == nil {
			return p, nil
		}
	}
	return 0, errNATFull
}

// rewrite redirects the datagram in buf from this host to dst:dstPort with
// source port srcPort, decrementing the TTL. The fabric rewriter fixes the
// IP and transport checksums incrementally. It reports false, for the
// datagram to be dropped, when the TTL has run out or the transport header
// is truncated.
func (k *Kernel) rewrite(buf []byte, dst view.IP4, srcPort, dstPort uint16) bool {
	ipv, err := view.IPv4(buf)
	if err != nil || ipv.TTL() <= 1 {
		return false
	}
	need := view.UDPHdrLen
	if k.proto == view.IPProtoTCP {
		need = 18 // through the TCP checksum field
	}
	if ipv.HdrLen()+need > len(buf) {
		return false
	}
	p := fabric.Packet{Buf: buf, Base: filter.BaseIP, Writable: true}
	fabric.RewriteAddrPort(&p, true, k.st.Addr(), srcPort, true)
	fabric.RewriteAddrPort(&p, false, dst, dstPort, true)
	ipv.SetTTL(ipv.TTL() - 1)
	ipv.ComputeChecksum()
	return true
}
