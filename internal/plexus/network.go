package plexus

import (
	"fmt"

	"plexus/internal/event"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// HostSpec describes one host: everything about it that does not depend on
// where a topology builder attaches it. Every host gets a fresh mbuf pool
// (Host.Pool): experiment cells run concurrently, and a pool carries
// per-simulation statistics and free lists.
type HostSpec struct {
	Name string
	// Personality and Dispatch choose the host's osmodel.Boundary: SPIN
	// with DispatchInterrupt is Plexus (interrupt), SPIN with
	// DispatchThread is Plexus (thread), and Monolithic is DIGITAL UNIX
	// whatever Dispatch says.
	Personality osmodel.Personality
	Dispatch    osmodel.DispatchMode
	// Quarantine configures the host dispatcher's fault-ejection policy for
	// misbehaving handlers (zero value = disabled; faults are still counted
	// in BindingStats).
	Quarantine event.QuarantinePolicy
	// CC selects the congestion-control algorithm for every connection
	// opened on this host ("" = tcp.DefaultCC).
	CC string
	// MinRTO overrides the TCP retransmission-timeout floor (0 = the
	// RFC 6298 conservative 1s).
	MinRTO sim.Time
}

// mask24 is the netmask of every subnet the builders create.
var mask24 = view.IP4{255, 255, 255, 0}

// Network is a set of hosts sharing one link — the paper's two-machine
// testbeds and the video experiment's server-plus-clients configuration.
type Network struct {
	Sim   *sim.Sim
	Link  *netdev.Link
	Hosts []*Stack
}

// NewNetwork builds hosts on a fresh simulator and a shared link of the
// given device model, assigning sequential addresses 10.0.0.1… on a /24.
func NewNetwork(seed int64, model netdev.Model, specs []HostSpec) (*Network, error) {
	s := sim.New(seed)
	link := netdev.NewLink(s, model.Name)
	n := &Network{Sim: s, Link: link}
	for i, spec := range specs {
		idx := byte(i + 1)
		st, err := NewStack(s, StackConfig{HostSpec: spec, Model: model, Link: link,
			MAC: view.MAC{0x02, 0x00, 0x00, 0x00, 0x00, idx}, Addr: view.IP4{10, 0, 0, idx}, Mask: mask24})
		if err != nil {
			return nil, fmt.Errorf("plexus: host %s: %w", spec.Name, err)
		}
		n.Hosts = append(n.Hosts, st)
	}
	return n, nil
}

// PrimeARP installs static ARP entries pairwise so latency experiments
// measure the protocol path, not a first-packet ARP exchange (the paper's
// numbers are steady-state).
func (n *Network) PrimeARP() {
	for _, a := range n.Hosts {
		for _, b := range n.Hosts {
			if a != b {
				a.ARP.AddStatic(b.Addr(), b.NIC.MAC())
			}
		}
	}
}

// TwoHosts is the common two-machine testbed: returns (hostA, hostB).
func TwoHosts(seed int64, model netdev.Model, a, b HostSpec) (*Network, *Stack, *Stack, error) {
	n, err := NewNetwork(seed, model, []HostSpec{a, b})
	if err != nil {
		return nil, nil, nil, err
	}
	n.PrimeARP()
	return n, n.Hosts[0], n.Hosts[1], nil
}
