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
var errNATFull = errors.New("forward: NAT port space exhausted")

// KernelStats counts in-kernel forwarder activity.
type KernelStats struct {
	Forwarded    uint64 // client → backend packets
	Returned     uint64 // backend → client packets
	FlowsCreated uint64
	Dropped      uint64
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

	flows   map[flowKey]*natEntry
	byNAT   map[uint16]*natEntry
	nextNAT uint16
	stats   KernelStats
}

// NewKernel installs a forwarder for proto (view.IPProtoTCP or
// view.IPProtoUDP) traffic to servicePort, redirecting it to
// backend:backendPort. The node claims the service port (and its NAT ports)
// from the local transport manager — the §3.1 multiple-implementations
// mechanism — and installs a guard/handler pair on IP.PacketRecv.
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
	if err := k.claim(servicePort); err != nil {
		return nil, err
	}
	guard := func(t *sim.Task, pkt *mbuf.Mbuf) bool {
		ipv, err := view.IPv4(pkt.Bytes())
		if err != nil || ipv.Proto() != proto {
			return false
		}
		_, dstPort, ok := k.ports(pkt, ipv)
		if !ok {
			return false
		}
		if dstPort == servicePort {
			return true
		}
		_, isNAT := k.byNAT[dstPort]
		return isNAT && ipv.Src() == backend
	}
	if _, err := st.Host.Disp.Install(ip.RecvEvent, guard,
		event.Ephemeral("forward.kernel", k.input), 0); err != nil {
		return nil, err
	}
	return k, nil
}

// claim takes a port away from the local transport implementation.
func (k *Kernel) claim(port uint16) error {
	if k.proto == view.IPProtoTCP {
		return k.st.TCP.Claim(port)
	}
	return k.st.UDP.Claim(port)
}

// Stats returns a snapshot of counters.
func (k *Kernel) Stats() KernelStats { return k.stats }

// ports extracts (srcPort, dstPort) from the transport header.
func (k *Kernel) ports(pkt *mbuf.Mbuf, ipv view.IPv4View) (uint16, uint16, bool) {
	hdr, err := pkt.CopyData(ipv.HdrLen(), 4)
	if err != nil {
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
		k.stats.Dropped++
		return
	}
	srcPort, dstPort, ok := k.ports(pkt, ipv)
	if !ok {
		k.stats.Dropped++
		return
	}
	// Work on a private copy: the incoming chain is read-only.
	out, err := pkt.DeepCopy()
	if err != nil {
		k.stats.Dropped++
		return
	}
	if dstPort == k.servicePort {
		// Client → backend.
		fk := flowKey{client: ipv.Src(), clientPort: srcPort}
		e, okf := k.flows[fk]
		if !okf {
			natPort, err := k.allocNAT()
			if err != nil {
				out.Free()
				k.stats.Dropped++
				return
			}
			e = &natEntry{key: fk, natPort: natPort}
			k.flows[fk] = e
			k.byNAT[natPort] = e
			k.stats.FlowsCreated++
		}
		if err := k.rewrite(out, k.st.Addr(), k.backend, e.natPort, k.backendPort); err != nil {
			out.Free()
			k.stats.Dropped++
			return
		}
		k.stats.Forwarded++
	} else {
		// Backend → client.
		e, okf := k.byNAT[dstPort]
		if !okf {
			out.Free()
			k.stats.Dropped++
			return
		}
		if err := k.rewrite(out, k.st.Addr(), e.key.client, k.servicePort, e.key.clientPort); err != nil {
			out.Free()
			k.stats.Dropped++
			return
		}
		k.stats.Returned++
	}
	if err := k.st.IP.Forward(t, out); err != nil {
		k.stats.Dropped++
	}
}

func (k *Kernel) allocNAT() (uint16, error) {
	for i := 0; i < 2048; i++ {
		p := k.nextNAT
		k.nextNAT++
		if k.nextNAT == natBase+2048 {
			k.nextNAT = natBase
		}
		if _, used := k.byNAT[p]; !used {
			if err := k.claim(p); err != nil {
				continue
			}
			return p, nil
		}
	}
	return 0, errNATFull
}

// rewrite updates addresses and ports on the private copy and recomputes the
// IP and transport checksums over the new pseudo-header.
func (k *Kernel) rewrite(out *mbuf.Mbuf, newSrc, newDst view.IP4, newSrcPort, newDstPort uint16) error {
	b, err := out.MutableBytes()
	if err != nil {
		return err
	}
	ipv, err := view.IPv4(b)
	if err != nil {
		return err
	}
	hl := ipv.HdrLen()
	if ttl := ipv.TTL(); ttl <= 1 {
		return fmt.Errorf("forward: TTL expired")
	}
	ipv.SetSrc(newSrc)
	ipv.SetDst(newDst)
	ipv.SetTTL(ipv.TTL() - 1)
	ipv.ComputeChecksum()
	// The transport header is contiguous in the head buffer for any
	// well-formed packet (DeepCopy packs from the front).
	if hl+view.UDPHdrLen > len(b) {
		return fmt.Errorf("forward: truncated transport header")
	}
	seg := b[hl:]
	seg[0] = byte(newSrcPort >> 8)
	seg[1] = byte(newSrcPort)
	seg[2] = byte(newDstPort >> 8)
	seg[3] = byte(newDstPort)
	segLen := ipv.TotalLen() - hl
	switch k.proto {
	case view.IPProtoTCP:
		if len(seg) < 18 {
			return fmt.Errorf("forward: truncated TCP header")
		}
		seg[16], seg[17] = 0, 0
		a := view.PseudoHeader(newSrc, newDst, view.IPProtoTCP, segLen)
		if err := ip.ChecksumChain(&a, out, hl, segLen); err != nil {
			return err
		}
		c := a.Fold()
		seg[16], seg[17] = byte(c>>8), byte(c)
	case view.IPProtoUDP:
		if seg[6] == 0 && seg[7] == 0 {
			return nil // sender disabled the checksum; leave it off
		}
		seg[6], seg[7] = 0, 0
		a := view.PseudoHeader(newSrc, newDst, view.IPProtoUDP, segLen)
		if err := ip.ChecksumChain(&a, out, hl, segLen); err != nil {
			return err
		}
		c := a.Fold()
		if c == 0 {
			c = 0xffff
		}
		seg[6], seg[7] = byte(c>>8), byte(c)
	}
	return nil
}
