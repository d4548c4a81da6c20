// Package osmodel defines where application code runs in the two systems the
// paper compares — SPIN/Plexus (in the kernel) and DIGITAL UNIX (at user
// level) — and the CPU cost model that separates them.
//
// The paper's central claim is structural: both systems run the *same*
// protocol code and the *same* device drivers (§4), so every measured
// difference comes from operating-system structure — traps, data copies
// across the user/kernel boundary, scheduling and context switches, and where
// handlers run. Boundary is that decision; Costs prices its terms in
// simulated time for a 1995 DEC Alpha 21064 @ 133MHz (DEC 3000/400). The
// reproduction does not claim cycle accuracy; EXPERIMENTS.md records how the
// resulting shapes compare with the paper's figures.
package osmodel

import "plexus/internal/sim"

// Personality selects the operating-system structure a host models.
type Personality int

const (
	// SPIN hosts run application protocol extensions inside the kernel.
	SPIN Personality = iota
	// Monolithic hosts model DIGITAL UNIX: applications at user level.
	Monolithic
)

func (p Personality) String() string {
	switch p {
	case SPIN:
		return "SPIN/Plexus"
	case Monolithic:
		return "DIGITAL UNIX"
	default:
		return "unknown"
	}
}

// DispatchMode selects how a SPIN host runs application receive handlers
// (the two Plexus bars of Figure 5). NewHost folds it and the personality
// into one Boundary.
type DispatchMode int

const (
	// DispatchInterrupt runs EPHEMERAL handlers directly in the network
	// interrupt (paper §3.3): lowest latency.
	DispatchInterrupt DispatchMode = iota
	// DispatchThread hands each event raise to a fresh kernel thread.
	DispatchThread
)

func (m DispatchMode) String() string {
	if m == DispatchInterrupt {
		return "interrupt"
	}
	return "thread"
}

// Boundary is where a host's application code runs relative to the kernel,
// the one decision the paper's comparison turns on (§3.3, §4): the traps,
// copies, wakeups and context switches a packet pays all follow from it.
type Boundary int

const (
	// PlexusInterrupt runs applications as kernel extensions whose receive
	// handlers execute EPHEMERAL in the network interrupt.
	PlexusInterrupt Boundary = iota
	// PlexusThread runs applications as kernel extensions, handing every
	// event raise to a fresh kernel thread.
	PlexusThread
	// DigitalUnix runs applications as user processes; the interrupt hands
	// receive processing to a softirq.
	DigitalUnix
)

func (b Boundary) String() string {
	return [...]string{"Plexus (interrupt)", "Plexus (thread)", "DIGITAL UNIX"}[b]
}

// AppPriority is the priority application code runs at: kernel for Plexus
// extensions, user for DIGITAL UNIX processes.
func (b Boundary) AppPriority() sim.Priority {
	if b == DigitalUnix {
		return sim.PrioUser
	}
	return sim.PrioKernel
}

// Costs is the CPU cost model. All values are simulated time on the host CPU.
// The dispatcher's own charges (paper §2: "roughly one procedure call") are
// event.DefaultCosts, which NewHost builds every host's dispatcher with.
type Costs struct {
	// --- kernel structure (the terms that separate the two systems) ---

	// Syscall is one trap into (and return from) the kernel.
	Syscall sim.Time
	// CopyPerByte is the cost of moving one byte across the user/kernel
	// boundary (copyin/copyout).
	CopyPerByte sim.Time
	// SocketLayer is the monolithic socket-layer overhead per send/recv
	// call: PCB lookup, socket buffer management, sleep/wakeup plumbing.
	SocketLayer sim.Time
	// Wakeup is marking a blocked process runnable plus scheduler work.
	Wakeup sim.Time
	// CtxSwitch is one context switch to a user process.
	CtxSwitch sim.Time
	// SoftIRQ is the monolithic hand-off from the interrupt to protocol
	// processing (netisr-style).
	SoftIRQ sim.Time
	// ThreadSpawn is creating and dispatching a kernel thread; the Plexus
	// "thread" mode pays this per event raise (paper Figure 5).
	ThreadSpawn sim.Time

	// --- protocol processing (identical on both systems) ---

	// EtherProc/IPProc/UDPProc/TCPProc are fixed per-packet costs of each
	// layer's header processing.
	EtherProc sim.Time
	IPProc    sim.Time
	UDPProc   sim.Time
	TCPProc   sim.Time
	// ChecksumPerByte is the software internet-checksum cost.
	ChecksumPerByte sim.Time

	// --- application-side devices used by the §5 workloads ---

	// DiskReadSetup is the per-read overhead of the file system path.
	DiskReadSetup sim.Time
	// DiskReadPerByte is the per-byte cost of reading file data.
	DiskReadPerByte sim.Time
	// RAMPerByte is a plain memory write, and FramebufferPerByte a write
	// to framebuffer memory — "a factor of 10 times slower" (paper §5.1).
	RAMPerByte         sim.Time
	FramebufferPerByte sim.Time
	// DecompressPerByte is the video client's per-byte decompression cost.
	DecompressPerByte sim.Time

	// AppHandler is the fixed cost of the application-specific handler
	// body in the latency benchmarks (touch the payload, form a reply).
	AppHandler sim.Time
}

// DefaultCosts returns the calibrated 1995-Alpha cost model. See DESIGN.md §4
// for the calibration targets.
func DefaultCosts() Costs {
	return Costs{
		Syscall:     6 * sim.Microsecond,
		CopyPerByte: 25 * sim.Nanosecond,
		SocketLayer: 55 * sim.Microsecond,
		Wakeup:      22 * sim.Microsecond,
		CtxSwitch:   40 * sim.Microsecond,
		SoftIRQ:     15 * sim.Microsecond,
		ThreadSpawn: 24 * sim.Microsecond,

		EtherProc:       8 * sim.Microsecond,
		IPProc:          13 * sim.Microsecond,
		UDPProc:         10 * sim.Microsecond,
		TCPProc:         30 * sim.Microsecond,
		ChecksumPerByte: 40 * sim.Nanosecond,

		DiskReadSetup:      60 * sim.Microsecond,
		DiskReadPerByte:    8 * sim.Nanosecond,
		RAMPerByte:         7 * sim.Nanosecond,
		FramebufferPerByte: 70 * sim.Nanosecond,
		DecompressPerByte:  25 * sim.Nanosecond,

		AppHandler: 10 * sim.Microsecond,
	}
}
