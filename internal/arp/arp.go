// Package arp implements the Address Resolution Protocol node of the
// protocol graph: a cache, request/reply processing, and a pending queue for
// packets awaiting resolution.
package arp

import (
	"fmt"

	"plexus/internal/ether"
	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Tunables, following conventional BSD behaviour.
const (
	// EntryLifetime is how long a learned mapping stays valid.
	EntryLifetime = 20 * 60 * sim.Second
	// RetryInterval separates retransmitted requests.
	RetryInterval = 1 * sim.Second
	// MaxRetries bounds request retransmissions before pending packets
	// are dropped.
	MaxRetries = 3
	// maxPending bounds packets queued per unresolved address.
	maxPending = 8
	// MaxCacheEntries bounds the cache: long runs against many peers must
	// not grow it without limit. When full, the entry closest to expiry is
	// evicted to admit the new mapping.
	MaxCacheEntries = 512
)

type entry struct {
	mac     view.MAC
	expires sim.Time
}

type pendingPkt struct {
	m *mbuf.Mbuf
	t uint16 // ether type to use once resolved
}

type resolution struct {
	pkts    []pendingPkt
	retries int
	timer   sim.Timer
}

// Stats counts ARP activity.
type Stats struct {
	RequestsSent  uint64
	RepliesSent   uint64
	RequestsRecvd uint64
	RepliesRecvd  uint64
	Drops         uint64 // pending packets dropped after MaxRetries
}

// ARP is the protocol node for one interface.
type ARP struct {
	host   *osmodel.Host
	eth    *ether.Layer
	selfIP view.IP4

	cache   map[view.IP4]entry
	pending map[view.IP4]*resolution
	stats   Stats
}

// New creates the ARP node and installs its guard/handler pair on
// Ethernet.PacketRecv (guard: EtherType == ARP).
func New(host *osmodel.Host, eth *ether.Layer, selfIP view.IP4) (*ARP, error) {
	a := &ARP{
		host:    host,
		eth:     eth,
		selfIP:  selfIP,
		cache:   make(map[view.IP4]entry),
		pending: make(map[view.IP4]*resolution),
	}
	_, err := eth.InstallRecv(
		ether.TypeGuard(view.EtherTypeARP),
		event.Ephemeral("arp.input", a.input),
		0,
	)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Stats returns a snapshot of counters.
func (a *ARP) Stats() Stats { return a.stats }

// AddStatic installs a permanent mapping (tests and the T3 point-to-point
// configuration use this).
func (a *ARP) AddStatic(ip view.IP4, mac view.MAC) {
	a.insert(ip, entry{mac: mac, expires: 1<<62 - 1})
}

// Lookup consults the cache. An entry found expired is evicted on the spot:
// without that, a long run resolving many peers grows the map unboundedly
// (every expired mapping is dead weight that Lookup must still hash past).
func (a *ARP) Lookup(ip view.IP4) (view.MAC, bool) {
	e, ok := a.cache[ip]
	if !ok {
		return view.MAC{}, false
	}
	if a.host.Sim.Now() > e.expires {
		delete(a.cache, ip)
		return view.MAC{}, false
	}
	return e.mac, true
}

// CacheLen reports live cache entries (including any not yet evicted).
func (a *ARP) CacheLen() int { return len(a.cache) }

// insert records a mapping, evicting to stay within MaxCacheEntries: first
// any already-expired entry, otherwise the entry closest to expiry. Static
// entries (far-future expiry) are the last to go.
func (a *ARP) insert(ip view.IP4, e entry) {
	if _, exists := a.cache[ip]; !exists && len(a.cache) >= MaxCacheEntries {
		// Deterministic victim selection: earliest expiry, ties broken by
		// address (map iteration order must not leak into simulations).
		var victim view.IP4
		var victimExp sim.Time = 1<<63 - 1
		for k, v := range a.cache {
			if v.expires < victimExp || (v.expires == victimExp && k.Uint32() < victim.Uint32()) {
				victim, victimExp = k, v.expires
			}
		}
		delete(a.cache, victim)
	}
	a.cache[ip] = e
}

// Send transmits m (consumed) to the on-link protocol address nextHop with
// the given Ethernet type, resolving the hardware address first if needed.
// Unresolved packets are queued and flushed by the reply; resolution failure
// after MaxRetries drops them.
func (a *ARP) Send(t *sim.Task, nextHop view.IP4, etherType uint16, m *mbuf.Mbuf) error {
	if nextHop.IsBroadcast() {
		return a.eth.Send(t, view.BroadcastMAC, etherType, m)
	}
	if nextHop.IsMulticast() {
		// RFC 1112 static mapping: 01:00:5e + low 23 bits.
		mac := view.MAC{0x01, 0x00, 0x5e, nextHop[1] & 0x7f, nextHop[2], nextHop[3]}
		return a.eth.Send(t, mac, etherType, m)
	}
	if mac, ok := a.Lookup(nextHop); ok {
		return a.eth.Send(t, mac, etherType, m)
	}
	r, inFlight := a.pending[nextHop]
	if !inFlight {
		r = &resolution{}
		a.pending[nextHop] = r
	}
	if len(r.pkts) >= maxPending {
		a.stats.Drops++
		m.Free()
		return fmt.Errorf("arp: pending queue full for %v", nextHop)
	}
	r.pkts = append(r.pkts, pendingPkt{m: m, t: etherType})
	if !inFlight {
		a.sendRequest(t, nextHop, r)
	}
	return nil
}

func (a *ARP) sendRequest(t *sim.Task, ip view.IP4, r *resolution) {
	req := a.host.Pool.FromBytes(make([]byte, view.ARPHdrLen), 32)
	b, _ := req.MutableBytes()
	v, _ := view.ARP(b)
	v.Init(view.ARPRequest, a.eth.MAC(), a.selfIP, view.MAC{}, ip)
	a.stats.RequestsSent++
	_ = a.eth.Send(t, view.BroadcastMAC, view.EtherTypeARP, req) // the retry timer covers a loss
	r.timer = a.host.Sim.After(RetryInterval, "arp-retry", func() {
		cur, ok := a.pending[ip]
		if !ok || cur != r {
			return
		}
		r.retries++
		if r.retries >= MaxRetries {
			for _, p := range r.pkts {
				p.m.Free()
				a.stats.Drops++
			}
			delete(a.pending, ip)
			return
		}
		// Retransmit from a fresh kernel-priority task.
		a.host.CPU.Submit(sim.PrioKernel, "arp-retry", func(task *sim.Task) { a.sendRequest(task, ip, r) })
	})
}

// input processes an incoming ARP packet (full Ethernet frame, read-only).
func (a *ARP) input(t *sim.Task, m *mbuf.Mbuf) {
	t.Charge(a.host.Costs.EtherProc)
	defer m.Free()
	frame, err := m.CopyData(0, m.PktLen())
	if err != nil || len(frame) < view.EthernetHdrLen+view.ARPHdrLen {
		return
	}
	v, err := view.ARP(frame[view.EthernetHdrLen:])
	if err != nil || v.HType() != 1 || v.PType() != view.EtherTypeIPv4 {
		return
	}
	// Learn the sender mapping unconditionally (as BSD does).
	a.learn(v.SenderIP(), v.SenderMAC(), t)
	switch v.Op() {
	case view.ARPRequest:
		a.stats.RequestsRecvd++
		if v.TargetIP() != a.selfIP {
			return
		}
		rep := a.host.Pool.FromBytes(make([]byte, view.ARPHdrLen), 32)
		b, _ := rep.MutableBytes()
		rv, _ := view.ARP(b)
		rv.Init(view.ARPReply, a.eth.MAC(), a.selfIP, v.SenderMAC(), v.SenderIP())
		a.stats.RepliesSent++
		_ = a.eth.Send(t, v.SenderMAC(), view.EtherTypeARP, rep) // the requester retries a loss
	case view.ARPReply:
		a.stats.RepliesRecvd++
	}
}

// learn records a mapping and flushes any packets waiting on it.
func (a *ARP) learn(ip view.IP4, mac view.MAC, t *sim.Task) {
	a.insert(ip, entry{mac: mac, expires: a.host.Sim.Now() + EntryLifetime})
	if r, ok := a.pending[ip]; ok {
		r.timer.Stop()
		delete(a.pending, ip)
		for _, p := range r.pkts {
			_ = a.eth.Send(t, mac, p.t, p.m) // a loss, for the transport above to recover
		}
	}
}
