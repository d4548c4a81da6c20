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

	cfg StackConfig
	// raiseFree and wakeFree recycle the records that carry work deferred
	// across the boundary: raises (see RaiseRef) and, with their copy
	// buffers, deliveries to DIGITAL UNIX processes (see deliver).
	raiseFree []*raiseJob
	wakeFree  []*userWake
	labels    map[[2]string]string // see Stack.label
}

// label returns prefix+name, built once per stack so that labelling a
// deferred task allocates nothing on the per-packet path.
func (st *Stack) label(prefix, name string) string {
	k := [2]string{prefix, name}
	l, ok := st.labels[k]
	if !ok {
		l = prefix + name
		st.labels[k] = l
	}
	return l
}

// raiseJob is one raise deferred to a kernel thread or softirq; jobs recycle
// through Stack.raiseFree, so raising allocates nothing.
type raiseJob struct {
	st  *Stack
	ref *event.Ref
	m   *mbuf.Mbuf
}

// RaiseRef implements event.Raiser — a Stack is the raiser its layers raise
// through — as the boundary's receive hand-off:
//
//   - Plexus (interrupt): raise inline — handlers run in the raising task,
//     which on the receive path is the network interrupt (paper §3.3).
//   - Plexus (thread): each raise creates a kernel thread (paper Figure 5's
//     "thread" bars): charge thread creation, continue at kernel priority.
//   - DIGITAL UNIX: the first raise out of the interrupt (Ethernet.PacketRecv)
//     models the netisr hand-off: charge the softirq dispatch and continue at
//     kernel priority; subsequent layers run inline in that softirq.
//
// An event with no handler installed has nothing to hand off to: it is raised
// inline, where its NoMatch action disposes of the packet.
func (st *Stack) RaiseRef(t *sim.Task, ref *event.Ref, m *mbuf.Mbuf) {
	b := st.Host.Boundary
	if b == osmodel.PlexusInterrupt || b == osmodel.DigitalUnix && ref.Name() != ether.RecvEvent || ref.HandlerCount() == 0 {
		ref.Raise(t, m)
		return
	}
	prefix := "softirq:"
	if b == osmodel.PlexusThread {
		prefix = "raise:"
		t.ChargeProf(sim.ProfDispatch, "thread-spawn", st.Host.Costs.ThreadSpawn)
	}
	j := pop(&st.raiseFree)
	j.st, j.ref, j.m = st, ref, m
	st.Host.CPU.SubmitAtArg(t.Now(), sim.PrioKernel, st.label(prefix, string(ref.Name())), raiseTask, j)
}

// raiseTask runs a deferred raise on its kernel thread or softirq.
func raiseTask(t *sim.Task, a any) {
	j := a.(*raiseJob)
	st, ref, m := j.st, j.ref, j.m
	j.ref, j.m = nil, nil
	st.raiseFree = append(st.raiseFree, j)
	if st.Host.Boundary == osmodel.DigitalUnix {
		t.ChargeProf(sim.ProfDispatch, "softirq", st.Host.Costs.SoftIRQ)
	}
	ref.Raise(t, m)
}

// NewStack assembles a host and its protocol graph.
func NewStack(s *sim.Sim, cfg StackConfig) (*Stack, error) {
	name := cfg.Name
	costs := osmodel.DefaultCosts()
	host := osmodel.NewHost(s, name, cfg.Personality, cfg.Dispatch, costs)
	if cfg.CPU != nil {
		host.CPU = cfg.CPU
	}
	host.Disp.SetQuarantine(cfg.Quarantine)
	st := &Stack{Host: host, cfg: cfg, labels: make(map[[2]string]string)}

	nic := netdev.NewNIC(s, name+"/"+cfg.Model.Name, cfg.Model, cfg.Link, netdev.Config{
		CPU:   host.CPU,
		Raise: st,
		Pool:  host.Pool,
		MAC:   cfg.MAC,
	})
	// The receive event is declared by ether.New below; the NIC's handle
	// is wired once it exists.
	eth, err := ether.New(ether.Config{
		NIC:   nic,
		Disp:  host.Disp,
		Raise: st,
		Pool:  host.Pool,
		CPU:   host.CPU,
		Costs: costs,
		// §3.3: handlers delegated interrupt-level work must be
		// EPHEMERAL. The other boundaries run handlers in kernel tasks
		// (a thread or the softirq), so the restriction is lifted there.
		RequireEphemeral: st.InterruptMode(),
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
		IP:               ipl,
		ICMP:             icmpl,
		Disp:             host.Disp,
		Raise:            st,
		Pool:             host.Pool,
		Costs:            costs,
		RequireEphemeral: st.InterruptMode(),
	})
	if err != nil {
		return nil, fmt.Errorf("plexus: %w", err)
	}
	tcpm, err := tcp.New(tcp.Config{
		Sim:              s,
		IP:               ipl,
		Disp:             host.Disp,
		Raise:            st,
		CPU:              host.CPU,
		Pool:             host.Pool,
		Costs:            costs,
		RequireEphemeral: false, // connection handlers are installed by the manager itself
		DefaultCC:        cfg.CC,
		MinRTO:           cfg.MinRTO,
	})
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

// Raiser returns the stack as the event raiser extensions raise through.
func (st *Stack) Raiser() event.Raiser { return st }

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
