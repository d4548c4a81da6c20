package osmodel

import (
	"plexus/internal/domain"
	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

// Host is one simulated machine: a CPU, an event dispatcher (the kernel's),
// an mbuf pool, the protection-domain namespace, and where application code
// runs relative to the kernel. Every protocol layer is built from its Host
// and raises the graph's events through it (see RaiseRef).
type Host struct {
	Name     string
	Sim      *sim.Sim
	CPU      *sim.CPU
	Disp     *event.Dispatcher
	Pool     *mbuf.Pool
	Boundary Boundary
	Costs    Costs

	// KernelDomain holds every kernel interface; few extensions link
	// against it (paper §2).
	KernelDomain *domain.Domain
	// ExtensionDomain is the restricted domain handed to untrusted
	// application extensions: packet buffers and the protocol-manager
	// interfaces only.
	ExtensionDomain *domain.Domain

	// raiseFree recycles the records of deferred raises (see RaiseRef).
	raiseFree []*raiseJob
	labels    map[[2]string]string // see Label
}

// NewHost assembles a host on simulator s with the default cost model. The
// dispatch mode matters only on SPIN: a Monolithic host is always
// DigitalUnix.
func NewHost(s *sim.Sim, name string, p Personality, d DispatchMode) *Host {
	b := DigitalUnix
	if p == SPIN {
		b = PlexusInterrupt
		if d == DispatchThread {
			b = PlexusThread
		}
	}
	return &Host{
		Name:            name,
		Sim:             s,
		CPU:             sim.NewCPU(s, name),
		Pool:            mbuf.NewPool(),
		Boundary:        b,
		Costs:           DefaultCosts(),
		Disp:            event.NewDispatcher(event.DefaultCosts()),
		KernelDomain:    domain.New(name + "/kernel"),
		ExtensionDomain: domain.New(name + "/extension"),
		labels:          make(map[[2]string]string),
	}
}

// RequireEphemeral reports whether handlers of the receive path must be
// EPHEMERAL: §3.3's rule for handlers delegated interrupt-level work. The
// other boundaries run handlers in kernel tasks (a thread or the softirq).
func (h *Host) RequireEphemeral() bool { return h.Boundary == PlexusInterrupt }

// Label returns prefix+name, built once per host so that labelling a
// deferred task allocates nothing on the per-packet path.
func (h *Host) Label(prefix, name string) string {
	k := [2]string{prefix, name}
	l, ok := h.labels[k]
	if !ok {
		l = prefix + name
		h.labels[k] = l
	}
	return l
}

// raiseJob is one raise deferred to a kernel thread or softirq; jobs recycle
// through Host.raiseFree, so raising allocates nothing.
type raiseJob struct {
	h   *Host
	ref *event.Ref
	m   *mbuf.Mbuf
}

// RaiseRef implements event.Raiser as the boundary's receive hand-off; the
// layers of the protocol graph raise through their host:
//
//   - Plexus (interrupt): raise inline — handlers run in the raising task,
//     which on the receive path is the network interrupt (paper §3.3).
//   - Plexus (thread): each raise creates a kernel thread (paper Figure 5's
//     "thread" bars): charge thread creation, continue at kernel priority.
//   - DIGITAL UNIX: a raise made at interrupt level (the device driver's
//     Ethernet.PacketRecv) models the netisr hand-off: charge the softirq
//     dispatch and continue at kernel priority; every later raise runs
//     inline in that softirq.
//
// An event with no handler installed has nothing to hand off to: it is raised
// inline, where its NoMatch action disposes of the packet.
func (h *Host) RaiseRef(t *sim.Task, ref *event.Ref, m *mbuf.Mbuf) {
	b := h.Boundary
	if b == PlexusInterrupt || b == DigitalUnix && t.Priority() != sim.PrioInterrupt || ref.HandlerCount() == 0 {
		ref.Raise(t, m)
		return
	}
	prefix := "softirq:"
	if b == PlexusThread {
		prefix = "raise:"
		t.ChargeProf(sim.ProfDispatch, "thread-spawn", h.Costs.ThreadSpawn)
	}
	var j *raiseJob
	if n := len(h.raiseFree); n > 0 {
		j = h.raiseFree[n-1]
		h.raiseFree = h.raiseFree[:n-1]
	} else {
		j = new(raiseJob)
	}
	j.h, j.ref, j.m = h, ref, m
	h.CPU.SubmitAtArg(t.Now(), sim.PrioKernel, h.Label(prefix, string(ref.Name())), raiseTask, j)
}

// raiseTask runs a deferred raise on its kernel thread or softirq.
func raiseTask(t *sim.Task, a any) {
	j := a.(*raiseJob)
	h, ref, m := j.h, j.ref, j.m
	j.ref, j.m = nil, nil
	h.raiseFree = append(h.raiseFree, j)
	if h.Boundary == DigitalUnix {
		t.ChargeProf(sim.ProfDispatch, "softirq", h.Costs.SoftIRQ)
	}
	ref.Raise(t, m)
}
