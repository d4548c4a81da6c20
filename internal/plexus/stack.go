// Package plexus assembles the protocol graph of the paper's Figure 1 on a
// simulated host and exposes the architecture's public surface: building
// stacks, opening endpoints through protocol managers, installing
// application-specific extensions at runtime, and running the same protocol
// code on either side of each osmodel.Boundary (Plexus in-kernel, or a
// DIGITAL UNIX user process) so their structural costs can be compared.
package plexus

import (
	"fmt"

	"plexus/internal/arp"
	"plexus/internal/ether"
	"plexus/internal/event"
	"plexus/internal/icmp"
	"plexus/internal/ip"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/udp"
	"plexus/internal/view"
)

// StackConfig describes one host's stack: the host itself, plus the wiring
// a topology builder assigns it.
type StackConfig struct {
	HostSpec
	// Model is the device type; Link the wire it attaches to.
	Model netdev.Model
	Link  *netdev.Link
	// Addressing.
	MAC     view.MAC
	Addr    view.IP4
	Mask    view.IP4
	Gateway view.IP4
	// CPU overrides the host's processor (nil = a fresh per-host CPU). A
	// multi-homed gateway runs all of its interface stacks on one CPU so
	// that forwarding between subnets contends for a single processor.
	CPU *sim.CPU
}

// Stack is a fully assembled protocol graph on one host.
type Stack struct {
	Host  *osmodel.Host
	NIC   *netdev.NIC
	Ether *ether.Layer
	ARP   *arp.ARP
	IP    *ip.Layer
	ICMP  *icmp.Layer
	UDP   *udp.Manager
	TCP   *tcp.Manager

	cfg StackConfig
	// wakeFree recycles the records, with their copy buffers, of
	// deliveries to DIGITAL UNIX processes (see deliver).
	wakeFree []*userWake
}

// NewStack assembles a host and its protocol graph.
func NewStack(s *sim.Sim, cfg StackConfig) (*Stack, error) {
	name := cfg.Name
	host := osmodel.NewHost(s, name, cfg.Personality, cfg.Dispatch)
	if cfg.CPU != nil {
		host.CPU = cfg.CPU
	}
	host.Disp.SetQuarantine(cfg.Quarantine)
	st := &Stack{Host: host, cfg: cfg}

	nic := netdev.NewNIC(host, name+"/"+cfg.Model.Name, cfg.Model, cfg.Link, cfg.MAC)
	// The receive event is declared by ether.New below; the NIC's handle
	// is wired once it exists.
	eth, err := ether.New(host, nic)
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	nic.SetRecvRef(host.Disp.Ref(ether.RecvEvent))
	ar, err := arp.New(host, eth, cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	ipl, err := ip.New(host, ip.Config{Ether: eth, ARP: ar, Addr: cfg.Addr, Mask: cfg.Mask, Gateway: cfg.Gateway})
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	icmpl, err := icmp.New(host, ipl)
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	udpm, err := udp.New(host, ipl, icmpl)
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	tcpm, err := tcp.New(host, tcp.Config{IP: ipl, DefaultCC: cfg.CC, MinRTO: cfg.MinRTO})
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	st.NIC, st.Ether, st.ARP, st.IP, st.ICMP, st.UDP, st.TCP = nic, eth, ar, ipl, icmpl, udpm, tcpm
	st.populateDomains()
	return st, nil
}

// populateDomains publishes the kernel interfaces into the host's protection
// domains: everything into the kernel domain, and only the restricted
// extension surface (packet buffers + protocol managers) into the domain
// untrusted extensions link against (paper §2).
func (st *Stack) populateDomains() {
	k := st.Host.KernelDomain
	k.MustExport("Mbuf.Pool", st.Host.Pool)
	k.MustExport("Ethernet.Layer", st.Ether)
	k.MustExport("Ethernet.PacketRecv", ether.RecvEvent)
	k.MustExport("ARP.Layer", st.ARP)
	k.MustExport("IP.Layer", st.IP)
	k.MustExport("IP.PacketRecv", ip.RecvEvent)
	k.MustExport("ICMP.Layer", st.ICMP)
	k.MustExport("UDP.Manager", st.UDP)
	k.MustExport("UDP.PacketRecv", udp.RecvEvent)
	k.MustExport("TCP.Manager", st.TCP)
	k.MustExport("TCP.PacketRecv", tcp.RecvEvent)
	k.MustExport("Device.NIC", st.NIC)
	k.MustExport("Dispatcher.Install", st.Host.Disp)
	k.MustExport("CPU.Submit", st.Host.CPU)

	e := st.Host.ExtensionDomain
	e.MustExport("Mbuf.Pool", st.Host.Pool)
	e.MustExport("Ethernet.Layer", st.Ether) // the manager interface, not the NIC
	e.MustExport("UDP.Manager", st.UDP)
	e.MustExport("TCP.Manager", st.TCP)
	e.MustExport("ICMP.Layer", st.ICMP)
}

// Name returns the host name.
func (st *Stack) Name() string { return st.Host.Name }

// Addr returns the host's IP address.
func (st *Stack) Addr() view.IP4 { return st.cfg.Addr }

// Raiser returns the host, the event raiser extensions raise through.
func (st *Stack) Raiser() event.Raiser { return st.Host }

// InterruptMode reports whether receive handlers run at interrupt level.
func (st *Stack) InterruptMode() bool { return st.Host.Boundary == osmodel.PlexusInterrupt }

// Spawn starts application code in a fresh task at the boundary's natural
// priority: kernel for Plexus extensions, user for DIGITAL UNIX processes.
func (st *Stack) Spawn(label string, fn func(t *sim.Task)) {
	st.Host.CPU.Submit(st.Host.Boundary.AppPriority(), label, fn)
}

// SpawnAt is Spawn at an absolute simulated time.
func (st *Stack) SpawnAt(at sim.Time, label string, fn func(t *sim.Task)) {
	st.Host.CPU.SubmitAt(at, st.Host.Boundary.AppPriority(), label, fn)
}
