// Package plexus assembles the protocol graph of the paper's Figure 1 on a
// simulated host and exposes the architecture's public surface: building
// stacks, opening endpoints through protocol managers, installing
// application-specific extensions at runtime, and running the same protocol
// code under either OS personality (SPIN/Plexus in-kernel, or a monolithic
// DIGITAL-UNIX-like structure) so their structural costs can be compared.
package plexus

import (
	"fmt"

	"plexus/internal/arp"
	"plexus/internal/domain"
	"plexus/internal/ether"
	"plexus/internal/event"
	"plexus/internal/icmp"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
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

	cfg    StackConfig
	raiser *modeRaiser

	// tcpRecvFree recycles the records (and copy buffers) that carry TCP
	// stream data to Monolithic user processes; tcpRecvLabel is their task
	// label, built on first use. See TCPApp.deliver.
	tcpRecvFree  []*tcpAppRecv
	tcpRecvLabel string
}

// modeRaiser implements event.Raiser with the stack's dispatch structure:
//
//   - SPIN/interrupt: raise inline — handlers run in the raising task, which
//     on the receive path is the network interrupt (paper §3.3).
//   - SPIN/thread: each raise creates a kernel thread (paper Figure 5's
//     "thread" bars): charge thread creation, continue at kernel priority.
//   - Monolithic: the first raise out of the interrupt (Ethernet.PacketRecv)
//     models the netisr hand-off: charge the softirq dispatch and continue at
//     kernel priority; subsequent layers run inline in that softirq.
type modeRaiser struct {
	host *osmodel.Host
	mode osmodel.DispatchMode
}

// Raise implements event.Raiser.
func (r *modeRaiser) Raise(t *sim.Task, name event.Name, m *mbuf.Mbuf) int {
	return r.RaiseRef(t, r.host.Disp.Ref(name), m)
}

// RaiseRef implements event.Raiser's resolved-handle raise — the form every
// protocol layer uses on its per-packet path.
func (r *modeRaiser) RaiseRef(t *sim.Task, ref *event.Ref, m *mbuf.Mbuf) int {
	switch {
	case r.host.Personality == osmodel.SPIN && r.mode == osmodel.DispatchThread:
		n := ref.HandlerCount()
		if n == 0 {
			return 0
		}
		t.ChargeProf(sim.ProfDispatch, "thread-spawn", r.host.Costs.ThreadSpawn)
		r.host.CPU.SubmitAt(t.Now(), sim.PrioKernel, "raise:"+string(ref.Name()), func(t2 *sim.Task) {
			ref.Raise(t2, m)
		})
		return n
	case r.host.Personality == osmodel.Monolithic && ref.Name() == ether.RecvEvent:
		n := ref.HandlerCount()
		if n == 0 {
			return 0
		}
		r.host.CPU.SubmitAt(t.Now(), sim.PrioKernel, "softirq:"+string(ref.Name()), func(t2 *sim.Task) {
			t2.ChargeProf(sim.ProfDispatch, "softirq", r.host.Costs.SoftIRQ)
			ref.Raise(t2, m)
		})
		return n
	default:
		return ref.Raise(t, m)
	}
}

// NewStack assembles a host and its protocol graph.
func NewStack(s *sim.Sim, cfg StackConfig) (*Stack, error) {
	name := cfg.Name
	costs := osmodel.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	host := osmodel.NewHost(s, name, cfg.Personality, costs)
	if cfg.Pool != nil {
		host.Pool = cfg.Pool
	}
	if cfg.CPU != nil {
		host.CPU = cfg.CPU
	}
	host.Disp.SetQuarantine(cfg.Quarantine)
	raiser := &modeRaiser{host: host, mode: cfg.Dispatch}
	interruptMode := cfg.Personality == osmodel.SPIN && cfg.Dispatch == osmodel.DispatchInterrupt

	nic := netdev.NewNIC(s, name+"/"+cfg.Model.Name, cfg.Model, cfg.Link, netdev.Config{
		CPU:   host.CPU,
		Raise: raiser,
		Pool:  host.Pool,
		MAC:   cfg.MAC,
	})
	// The receive event is declared by ether.New below; the NIC's handle
	// is wired once it exists.
	eth, err := ether.New(ether.Config{
		NIC:   nic,
		Disp:  host.Disp,
		Raise: raiser,
		Pool:  host.Pool,
		CPU:   host.CPU,
		Costs: costs,
		// §3.3: handlers delegated interrupt-level work must be
		// EPHEMERAL. Thread/monolithic stacks run handlers on threads,
		// so the restriction is lifted there.
		RequireEphemeral: interruptMode,
	})
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	nic.SetRecvRef(host.Disp.Ref(ether.RecvEvent))
	ar, err := arp.New(s, eth, host.Pool, costs, cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	ipl, err := ip.New(ip.Config{
		Sim:     s,
		Ether:   eth,
		ARP:     ar,
		Disp:    host.Disp,
		Pool:    host.Pool,
		Costs:   costs,
		Addr:    cfg.Addr,
		Mask:    cfg.Mask,
		Gateway: cfg.Gateway,
	})
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	icmpl, err := icmp.New(ipl, host.Disp, host.Pool, costs)
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	udpm, err := udp.New(udp.Config{
		Sim:              s,
		IP:               ipl,
		ICMP:             icmpl,
		Disp:             host.Disp,
		Raise:            raiser,
		Pool:             host.Pool,
		Costs:            costs,
		RequireEphemeral: interruptMode,
	})
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	tcpm, err := tcp.New(tcp.Config{
		Sim:              s,
		IP:               ipl,
		Disp:             host.Disp,
		Raise:            raiser,
		CPU:              host.CPU,
		Pool:             host.Pool,
		Costs:            costs,
		RequireEphemeral: false, // connection handlers are installed by the manager itself
		Audit:            cfg.Audit,
		DefaultCC:        cfg.CC,
		MinRTO:           cfg.MinRTO,
	})
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	tcpm.AttachHealth(host.Disp)
	st := &Stack{
		Host:   host,
		NIC:    nic,
		Ether:  eth,
		ARP:    ar,
		IP:     ipl,
		ICMP:   icmpl,
		UDP:    udpm,
		TCP:    tcpm,
		cfg:    cfg,
		raiser: raiser,
	}
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

// LinkExtension dynamically links an application extension against the
// restricted extension domain — the runtime-adaptation path of §1. The
// extension's imports must all resolve or the link is rejected.
func (st *Stack) LinkExtension(ext *domain.Extension) (*domain.Linked, error) {
	return domain.Link(ext, st.Host.ExtensionDomain, st.Host.ExtensionDomain)
}

// Name returns the host name.
func (st *Stack) Name() string { return st.Host.Name }

// Addr returns the host's IP address.
func (st *Stack) Addr() view.IP4 { return st.cfg.Addr }

// Raiser returns the stack's mode-aware event raiser.
func (st *Stack) Raiser() event.Raiser { return st.raiser }

// InterruptMode reports whether receive handlers run at interrupt level.
func (st *Stack) InterruptMode() bool {
	return st.cfg.Personality == osmodel.SPIN && st.cfg.Dispatch == osmodel.DispatchInterrupt
}

// Spawn starts application code in a fresh task at the personality's natural
// priority: kernel for SPIN extensions, user for monolithic processes.
func (st *Stack) Spawn(label string, fn func(t *sim.Task)) {
	prio := sim.PrioKernel
	if st.Host.Personality == osmodel.Monolithic {
		prio = sim.PrioUser
	}
	st.Host.CPU.Submit(prio, label, fn)
}

// SpawnAt is Spawn at an absolute simulated time.
func (st *Stack) SpawnAt(at sim.Time, label string, fn func(t *sim.Task)) {
	prio := sim.PrioKernel
	if st.Host.Personality == osmodel.Monolithic {
		prio = sim.PrioUser
	}
	st.Host.CPU.SubmitAt(at, prio, label, fn)
}
