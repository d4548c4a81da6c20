package plexus

import (
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
// testbeds and the video experiment's server-plus-clients configuration: the
// one bus segment of a topology, on its own simulator.
type Network struct {
	Sim *sim.Sim
	Segment
}

// NewNetwork builds hosts on a fresh simulator as one bus segment of the
// given device model, named after it, assigning sequential addresses
// 10.0.0.1… on a /24.
func NewNetwork(seed int64, model netdev.Model, specs []HostSpec) (*Network, error) {
	n := &Network{Sim: sim.New(seed)}
	spec := SegmentSpec{Name: model.Name, Model: model, Subnet: view.IP4{10, 0, 0, 0}, Hosts: specs}
	if err := n.build(n.Sim, 0, &spec, 0); err != nil {
		return nil, err
	}
	return n, nil
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
