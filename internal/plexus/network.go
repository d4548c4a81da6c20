package plexus

import (
	"fmt"

	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/view"
)

// HostSpec describes one host for NewNetwork.
type HostSpec struct {
	Name        string
	Personality osmodel.Personality
	Dispatch    osmodel.DispatchMode
	// Costs overrides the default cost model (nil = defaults).
	Costs *osmodel.Costs
	// Pool overrides the host's mbuf pool (nil = a fresh per-host pool).
	// Every host must have its own pool — or at least one private to its
	// simulator — because experiment cells run concurrently and pools
	// carry per-sim statistics and free lists.
	Pool *mbuf.Pool
	// Quarantine configures the host dispatcher's fault-ejection policy
	// (zero value = disabled).
	Quarantine event.QuarantinePolicy
	// Audit receives every TCP state transition on this host (nil = off).
	Audit tcp.TransitionSink
	// CC selects the host's default congestion-control algorithm
	// ("" = tcp.DefaultCC).
	CC string
	// MinRTO overrides the TCP retransmission-timeout floor (0 = 1s).
	MinRTO sim.Time
}

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
		cfg := StackConfig{
			Personality: spec.Personality,
			Dispatch:    spec.Dispatch,
			Model:       model,
			Link:        link,
			MAC:         view.MAC{0x02, 0x00, 0x00, 0x00, 0x00, idx},
			Addr:        view.IP4{10, 0, 0, idx},
			Mask:        view.IP4{255, 255, 255, 0},
			Costs:       spec.Costs,
			Pool:        spec.Pool,
			Quarantine:  spec.Quarantine,
			Audit:       spec.Audit,
			CC:          spec.CC,
			MinRTO:      spec.MinRTO,
		}
		st, err := NewStack(s, spec.Name, cfg)
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
