package osmodel

import (
	"plexus/internal/domain"
	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

// Host is one simulated machine: a CPU, an event dispatcher (the kernel's),
// an mbuf pool, the protection-domain namespace, and where application code
// runs relative to the kernel.
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
}

// NewHost assembles a host on simulator s. The dispatch mode matters only on
// SPIN: a Monolithic host is always DigitalUnix.
func NewHost(s *sim.Sim, name string, p Personality, d DispatchMode, costs Costs) *Host {
	b := DigitalUnix
	if p == SPIN {
		b = PlexusInterrupt
		if d == DispatchThread {
			b = PlexusThread
		}
	}
	return &Host{
		Name:     name,
		Sim:      s,
		CPU:      sim.NewCPU(s, name),
		Pool:     mbuf.NewPool(),
		Boundary: b,
		Costs:    costs,
		Disp: event.NewDispatcher(event.Costs{
			GuardEval: costs.GuardEval,
			Invoke:    costs.EventInvoke,
		}),
		KernelDomain:    domain.New(name + "/kernel"),
		ExtensionDomain: domain.New(name + "/extension"),
	}
}
