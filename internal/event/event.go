// Package event reproduces SPIN's dynamic event dispatcher (paper §2), the
// mechanism Plexus builds its protocol graph on.
//
// An event is declared like a procedure ("Ethernet.PacketRecv") and raised
// like a call. Extensions install handlers on events; each handler may carry
// a guard, an arbitrary predicate the dispatcher evaluates before invoking
// the handler. Guards are how Plexus implements packet filters: a guard
// inspects the packet and returns true only for packets its handler is
// responsible for, both demultiplexing the protocol graph and preventing
// snooping.
//
// The paper's EPHEMERAL attribute (§3.3) marks handlers safe to run at
// interrupt level: they may be asynchronously terminated without damaging
// state. Go has no compile-time effect system, so the attribute is carried on
// the handler descriptor; events declared RequireEphemeral reject
// non-ephemeral installs exactly as the paper's protocol managers do, and
// per-binding time allotments are enforced by terminating (in simulation:
// refunding and flagging) handlers that overrun.
//
// Dispatch cost is charged to the raising task: "the overhead of invoking
// each handler is roughly one procedure call".
//
// # Keyed guards
//
// An event whose bindings mostly demultiplex on exact header matches (a
// transport's 4-tuple, IP's protocol and port) may declare a key extractor,
// its owner's code, run at most once per raise outside crash containment,
// yielding a packet's exact and wildcard keys. InstallKey installs a binding
// whose guard is an exact-match Key; it holds the key, and any AddKey gives
// it, until Uninstall. A raise matches the exact key's holder, else the
// wildcard key's: one keyed match at most, an exact entry shadowing a
// wildcard. Consecutive keyed bindings form a run, one dispatch-list entry;
// eight keys are found by a scan of the runs, more through an index, so host
// cost grows with closure guards and matches, not keyed bindings. Simulated
// cost stays linear: a run charges n×GuardEval (one ChargeProf per member
// with a sim.Metrics sink) and derives GuardRejects from its scan count, so
// every charge, sample and counter is a closure guard's. The lookup relies
// on guards being side-effect free: none installs or uninstalls.
//
// # Crash containment and quarantine
//
// A handler or guard that panics is caught by the dispatcher: the time it
// consumed stays charged, the fault is counted on its binding, and dispatch
// continues to the remaining matched bindings — one rogue extension cannot
// stop delivery to the rest of the protocol graph. Faults (panics, allotment
// terminations, guard budget overruns) accumulate per binding; an optional
// QuarantinePolicy auto-disables a binding once its fault count reaches a
// threshold — the paper's "the manager can reject the handler" extended to
// runtime ejection. Dispatcher-integrity panics (raising an undeclared
// event, exceeding the recursion bound) are NOT contained: they indicate a
// misbuilt graph, not a misbehaving extension, and propagate to the caller.
package event

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

// Name identifies an event, conventionally "Interface.Procedure".
type Name string

// Raiser abstracts how an event raise is performed. The Dispatcher raises
// inline (handlers run in the raising task — the paper's interrupt-level
// dispatch); a protocol stack may interpose thread handoff or a monolithic
// kernel's softirq step between layers instead. Layers that raise the same
// event for every packet resolve the name to a Ref once at construction and
// stay off the name map in steady state. A deferred raise has not run when
// RaiseRef returns, so what happens to a packet no handler takes is the
// event's NoMatch action, not the caller's.
type Raiser interface {
	RaiseRef(t *sim.Task, r *Ref, m *mbuf.Mbuf)
}

// Guard is a packet-filter predicate evaluated before a handler is invoked.
// Guards must be side-effect free; they run for every raise of the event.
type Guard func(t *sim.Task, m *mbuf.Mbuf) bool

// Key is an exact-match demultiplexing key, packed by the event's owner from
// the header fields its bindings match on.
type Key uint64

// HandlerFunc is the procedure executed in response to an event.
type HandlerFunc func(t *sim.Task, m *mbuf.Mbuf)

// Handler is a handler procedure plus the attributes the dispatcher needs:
// a diagnostic name and whether the procedure is EPHEMERAL.
type Handler struct {
	Name      string
	Fn        HandlerFunc
	Ephemeral bool
}

// Ephemeral builds an EPHEMERAL handler descriptor: one whose implementation
// tolerates premature termination without violating invariants (paper
// Figure 3). The caller asserts the property; the dispatcher enforces its
// consequences.
func Ephemeral(name string, fn HandlerFunc) Handler {
	return Handler{Name: name, Fn: fn, Ephemeral: true}
}

// Proc builds an ordinary (non-ephemeral) handler descriptor.
func Proc(name string, fn HandlerFunc) Handler {
	return Handler{Name: name, Fn: fn}
}

// Options configure a declared event.
type Options struct {
	// RequireEphemeral makes the event reject non-EPHEMERAL handlers at
	// install time. Events raised from interrupt context declare this.
	RequireEphemeral bool
	// Key, if set, extracts a packet's exact and wildcard keys for the
	// event's keyed bindings (InstallKey); ok=false means no keyed binding
	// matches the packet. It must not panic: it runs outside containment.
	Key func(*mbuf.Mbuf) (exact, wild Key, ok bool)
	// NoMatch, if set, disposes of a packet a raise invoked no handler for
	// (counts the drop, answers with an error, frees it). It runs at the end
	// of that raise, in whichever task the raise runs, outside containment.
	NoMatch HandlerFunc
}

// Costs parameterize what raising an event charges the running task. The
// defaults model SPIN's measured overheads: a guard evaluation and a handler
// invocation each cost roughly a procedure call.
type Costs struct {
	GuardEval sim.Time // charged per guard evaluated
	Invoke    sim.Time // charged per handler invoked
}

// DefaultCosts mirrors the paper's "roughly one procedure call" dispatch.
func DefaultCosts() Costs {
	return Costs{GuardEval: 200 * sim.Nanosecond, Invoke: 1 * sim.Microsecond}
}

// Errors returned by the dispatcher.
var (
	// ErrUnknownEvent reports a raise or install on an undeclared event.
	ErrUnknownEvent = errors.New("event: unknown event")
	// ErrNotEphemeral reports an attempt to install a non-EPHEMERAL handler
	// on an event that requires one (paper §3.3: "the manager can reject
	// the handler").
	ErrNotEphemeral = errors.New("event: handler is not EPHEMERAL")
	// ErrDuplicate reports a duplicate event declaration.
	ErrDuplicate = errors.New("event: already declared")
	// ErrAllotmentNotEphemeral reports an attempt to install a non-EPHEMERAL
	// handler with a time allotment. Allotments are enforced by premature
	// termination, which only EPHEMERAL handlers tolerate (§3.3); terminating
	// an ordinary handler could leave shared state corrupt.
	ErrAllotmentNotEphemeral = errors.New("event: time allotment requires an EPHEMERAL handler")
	// ErrNoKey reports a keyed install on an event that declares no key
	// extractor, or AddKey on a binding holding no key.
	ErrNoKey = errors.New("event: event declares no key")
	// ErrKeyBound reports a keyed install or AddKey of a key the event holds.
	ErrKeyBound = errors.New("event: key already bound")
)

// BindingStats counts a binding's dispatch activity and its faults. The sum
// Faults() is what the quarantine policy compares against its threshold.
type BindingStats struct {
	Invocations   uint64 // handler bodies run
	GuardRejects  uint64 // raises filtered out by the guard
	Terminations  uint64 // premature terminations for budget overrun
	Panics        uint64 // handler bodies that panicked (contained)
	GuardPanics   uint64 // guard evaluations that panicked (contained; counts as a reject)
	GuardOverruns uint64 // guard evaluations exceeding the policy's GuardBudget
}

// Faults is the total misbehavior charged against the binding: allotment
// terminations, contained panics (handler or guard), and guard overruns.
func (s BindingStats) Faults() uint64 {
	return s.Terminations + s.Panics + s.GuardPanics + s.GuardOverruns
}

// Binding is one installed (guard, handler) pair; the handle for uninstall.
//
// Lifecycle: a *Binding stays valid after the binding stops delivering —
// whether by Uninstall or by quarantine — so owners can read Stats() and
// Quarantined() post-mortem. Only dispatch stops; the handle is never
// recycled.
type Binding struct {
	event     *Ref
	guard     Guard
	key       Key     // InstallKey's key; those AddKey gives are in the event's index only
	run       *keyRun // the run holding a live keyed binding, or the run a run entry stands for
	name      string  // the handler's diagnostic name
	fn        HandlerFunc
	allotment sim.Time // 0 = unlimited
	// The flags and slot share one word: a Binding stays in the 128-byte size class.
	keyed, removed, quarantined bool
	multi                       bool  // AddKey gave the binding more keys
	slot                        int32 // a live keyed binding's index in run.members
	stats                       BindingStats
}

// Stats returns a snapshot of the binding's counters.
func (b *Binding) Stats() BindingStats {
	s := b.stats
	if b.run != nil { // a live member holds −(its run's scans at join + accepts)
		s.GuardRejects += b.run.scans
	}
	return s
}

// Quarantined reports whether the dispatcher auto-disabled the binding after
// it reached the quarantine policy's fault threshold.
func (b *Binding) Quarantined() bool { return b.quarantined }

// QuarantinePolicy configures runtime ejection of faulty bindings. The zero
// value disables quarantine (faults are still counted in BindingStats).
type QuarantinePolicy struct {
	// Threshold is the fault count (BindingStats.Faults) at which the
	// dispatcher auto-disables a binding. 0 disables quarantine.
	Threshold uint64
	// GuardBudget bounds the CPU a single guard evaluation may consume
	// beyond the dispatcher's own GuardEval charge. A guard exceeding it is
	// refunded down to the budget and charged a GuardOverruns fault —
	// allotment enforcement extended to guards, which the paper requires to
	// be cheap predicates. 0 = unlimited.
	GuardBudget sim.Time
}

// keyRun is a run: consecutive keyed bindings of one event. Its entry is the
// Binding that stands for it in the event's dispatch list.
type keyRun struct {
	entry   Binding
	members []*Binding // in install order; nil where one was removed
	live    int        // non-nil members
	scans   uint64     // raises that reached the run
}

// add appends b to ev's dispatch order: into the run at its end if b is
// keyed and the last entry is a run, else as a new entry.
func (ev *Ref) add(b *Binding) {
	if !b.keyed {
		ev.bindings = append(ev.bindings, b)
		return
	}
	var r *keyRun
	if n := len(ev.bindings); n > 0 && ev.bindings[n-1].keyed {
		r = ev.bindings[n-1].run
	} else {
		r = &keyRun{}
		r.entry = Binding{keyed: true, run: r}
		ev.bindings = append(ev.bindings, &r.entry)
	}
	b.run = r
	b.stats.GuardRejects -= r.scans
	b.slot = int32(len(r.members))
	r.members = append(r.members, b)
	r.live++
	if ev.index != nil {
		ev.index[b.key] = b
	} else if n := 0; ev.find(func(*Binding) bool { n++; return n > 8 }) != nil {
		ev.makeIndex() // past eight keys, a scan costs more than an index
	}
}

// makeIndex builds the event's key index from its runs' members, once.
func (ev *Ref) makeIndex() {
	if ev.index == nil {
		ev.index = make(map[Key]*Binding)
		ev.find(func(kb *Binding) bool { ev.index[kb.key] = kb; return false })
	}
}

// holder returns the binding holding key, or nil.
func (ev *Ref) holder(key Key) *Binding {
	if ev.index != nil {
		return ev.index[key]
	}
	return ev.find(func(kb *Binding) bool { return kb.key == key })
}

// find returns the first live keyed binding f accepts, or nil.
func (ev *Ref) find(f func(*Binding) bool) *Binding {
	for _, e := range ev.bindings {
		if e.keyed {
			for _, kb := range e.run.members {
				if kb != nil && f(kb) {
					return kb
				}
			}
		}
	}
	return nil
}

// Dispatcher routes raised events to installed handlers.
type Dispatcher struct {
	costs  Costs
	events map[Name]*Ref
	// raiseDepth guards against accidental unbounded event recursion in a
	// misbuilt protocol graph.
	raiseDepth int32
	// scratch holds one reusable binding buffer per active raise depth, so
	// the per-raise snapshot does not allocate in steady state. Indexed by
	// depth-1; nested raises each get their own buffer.
	scratch [][]*Binding
	// quar is the quarantine policy; zero value = disabled.
	quar QuarantinePolicy
	// ejected retains quarantined bindings (already detached from their
	// events) so Health can still account for them.
	ejected []*Binding
}

// maxRaiseDepth bounds protocol-graph recursion; real stacks are ~6 deep.
const maxRaiseDepth = 64

// NewDispatcher creates a dispatcher with the given cost model.
func NewDispatcher(costs Costs) *Dispatcher {
	return &Dispatcher{costs: costs, events: make(map[Name]*Ref)}
}

// SetQuarantine installs (or, with the zero value, disables) the quarantine
// policy. It applies to faults recorded after the call; bindings already
// quarantined stay quarantined.
func (d *Dispatcher) SetQuarantine(p QuarantinePolicy) { d.quar = p }

// Health is a dispatcher-level snapshot of extension behavior: how many
// bindings are live, how many the quarantine policy has ejected, and the
// fault totals accumulated across every binding (including ejected ones).
type Health struct {
	Events        int    // declared events
	Bindings      int    // live installed bindings
	Quarantined   int    // bindings auto-disabled by the quarantine policy
	Invocations   uint64 // handler bodies run
	Panics        uint64 // handler panics contained
	GuardPanics   uint64 // guard panics contained
	Terminations  uint64 // allotment overruns terminated
	GuardOverruns uint64 // guard budget overruns
	Faults        uint64 // sum of the four fault classes
}

// Health returns the dispatcher's current health snapshot.
func (d *Dispatcher) Health() Health {
	h := Health{Events: len(d.events), Quarantined: len(d.ejected)}
	acc := func(b *Binding) {
		h.Invocations += b.stats.Invocations
		h.Panics += b.stats.Panics
		h.GuardPanics += b.stats.GuardPanics
		h.Terminations += b.stats.Terminations
		h.GuardOverruns += b.stats.GuardOverruns
		h.Faults += b.stats.Faults()
	}
	for _, ev := range d.events {
		h.Bindings += ev.HandlerCount()
		for _, b := range ev.bindings {
			if !b.keyed {
				acc(b)
			}
		}
		ev.find(func(kb *Binding) bool { acc(kb); return false })
	}
	for _, b := range d.ejected {
		acc(b)
	}
	return h
}

// Declare registers an event name. Redeclaration fails.
func (d *Dispatcher) Declare(name Name, opts Options) error {
	if _, ok := d.events[name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	d.events[name] = &Ref{d: d, name: name, opts: opts}
	return nil
}

// MustDeclare is Declare that panics on error, for static graph setup.
func (d *Dispatcher) MustDeclare(name Name, opts Options) {
	if err := d.Declare(name, opts); err != nil {
		panic(err)
	}
}

// Install attaches a handler (with optional guard; nil matches everything)
// to an event. allotment, if nonzero, is the EPHEMERAL time budget per
// invocation. Installation order is dispatch order.
func (d *Dispatcher) Install(name Name, guard Guard, h Handler, allotment sim.Time) (*Binding, error) {
	return d.install(name, &Binding{guard: guard}, h, allotment)
}

// InstallKey is Install with an exact-match guard: the binding matches the
// packets whose key, as the event's declared extractor computes it, equals
// key, and holds key until Uninstall. It fails with ErrNoKey if the event
// declares no extractor, and with ErrKeyBound if another binding holds key.
func (d *Dispatcher) InstallKey(name Name, key Key, h Handler, allotment sim.Time) (*Binding, error) {
	return d.install(name, &Binding{keyed: true, key: key}, h, allotment)
}

// AddKey gives keyed binding b one more key, held until Uninstall. It fails
// with ErrNoKey on a closure or uninstalled binding and with ErrKeyBound on
// a held key.
func (d *Dispatcher) AddKey(b *Binding, key Key) error {
	ev := b.event
	if !b.keyed || b.removed {
		return fmt.Errorf("%w: %s on %s", ErrNoKey, b.name, ev.name)
	}
	if ev.Bound(key) {
		return fmt.Errorf("%w: %#x on %s", ErrKeyBound, uint64(key), ev.name)
	}
	ev.makeIndex()
	ev.index[key], b.multi = b, true
	return nil
}

// install validates b, with handler h and its allotment, against the named
// event and appends it to the event's dispatch order.
func (d *Dispatcher) install(name Name, b *Binding, h Handler, allotment sim.Time) (*Binding, error) {
	ev, ok := d.events[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownEvent, name)
	}
	if b.keyed && ev.opts.Key == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoKey, name)
	}
	if b.keyed && ev.Bound(b.key) {
		return nil, fmt.Errorf("%w: %#x on %s", ErrKeyBound, uint64(b.key), name)
	}
	if ev.opts.RequireEphemeral && !h.Ephemeral {
		return nil, fmt.Errorf("%w: %s on %s", ErrNotEphemeral, h.Name, name)
	}
	if h.Fn == nil {
		return nil, fmt.Errorf("event: nil handler %q on %s", h.Name, name)
	}
	if allotment < 0 {
		return nil, fmt.Errorf("event: negative allotment %v for %q on %s", allotment, h.Name, name)
	}
	if allotment > 0 && !h.Ephemeral {
		return nil, fmt.Errorf("%w: %s on %s", ErrAllotmentNotEphemeral, h.Name, name)
	}
	b.event, b.name, b.fn, b.allotment = ev, h.Name, h.Fn, allotment
	ev.add(b)
	return b, nil
}

// Uninstall detaches a binding. Semantics:
//
//   - Returns true iff this call removed an actively dispatching binding.
//   - Double-uninstall is a no-op returning false.
//   - Uninstalling a quarantined binding marks it removed but returns false
//     (quarantine had already detached it).
//   - It frees every key a keyed binding holds, quarantined or not.
//   - A binding uninstalled during a raise does not fire later in that same
//     raise, even though the raise's dispatch snapshot was taken before the
//     removal.
//   - The *Binding handle stays valid afterwards: Stats() remains readable;
//     only delivery stops.
func (d *Dispatcher) Uninstall(b *Binding) bool {
	if b == nil || b.removed {
		return false
	}
	b.removed = true
	if b.multi {
		maps.DeleteFunc(b.event.index, func(_ Key, kb *Binding) bool { return kb == b })
	} else if b.keyed {
		delete(b.event.index, b.key)
	}
	if b.quarantined {
		return false
	}
	detach(b)
	return true
}

// detach takes a live binding out of its event's dispatch order: out of its
// run if it is keyed, dropping the run's entry once the run is empty.
func detach(b *Binding) {
	ev := b.event
	entry := b
	if r := b.run; r != nil {
		if r.remove(b); r.live > 0 {
			return
		}
		entry = &r.entry
	}
	i := slices.Index(ev.bindings, entry)
	ev.bindings = append(ev.bindings[:i], ev.bindings[i+1:]...)
}

// remove takes b out of the run and freezes its GuardRejects. Once nil
// slots outnumber members, the members close up: removal is amortised O(1).
func (r *keyRun) remove(b *Binding) {
	b.stats.GuardRejects += r.scans
	b.run = nil
	r.members[b.slot] = nil
	if r.live--; len(r.members) <= 2*r.live {
		return
	}
	live := r.members[:0]
	for _, kb := range r.members {
		if kb != nil {
			kb.slot = int32(len(live))
			live = append(live, kb)
		}
	}
	clear(r.members[len(live):])
	r.members = live
}

// HandlerCount reports the number of handlers installed on an event.
func (d *Dispatcher) HandlerCount(name Name) int {
	if ev, ok := d.events[name]; ok {
		return ev.HandlerCount()
	}
	return 0
}

// Ref is one declared event: its dispatch state, and the resolved handle to
// it. Raising or counting handlers through the handle skips the name-map
// lookup that Raise and HandlerCount pay — the difference is a few percent
// of total runtime on the per-packet path, where every layer raises the
// same one or two events for every packet. Declarations are permanent, so a
// Ref never goes stale; handlers installed or removed later are seen by the
// next raise through it, exactly as with Raise by name.
type Ref struct {
	d    *Dispatcher
	name Name
	opts Options
	// bindings is the dispatch order: closure-guarded and unguarded
	// bindings, and one entry per run of keyed bindings.
	bindings []*Binding
	index    map[Key]*Binding // each held key's binding; nil while every key is a live member's only one
	raises   uint64
}

// Ref resolves name to a dispatch handle. Like raising an undeclared event,
// resolving an undeclared name panics: only code linked against the event's
// interface can name it, so an unknown name is a programming error.
func (d *Dispatcher) Ref(name Name) *Ref {
	ev, ok := d.events[name]
	if !ok {
		panic(graphPanic{fmt.Sprintf("event: ref to undeclared event %s", name)})
	}
	return ev
}

// Name returns the referenced event's name.
func (r *Ref) Name() Name { return r.name }

// HandlerCount reports the number of handlers installed on the event.
func (r *Ref) HandlerCount() int {
	n := len(r.bindings)
	for _, b := range r.bindings {
		if b.keyed {
			n += b.run.live - 1
		}
	}
	return n
}

// Bound reports whether an InstallKey binding not yet uninstalled holds key.
func (r *Ref) Bound(key Key) bool { return r.holder(key) != nil }

// Raise is Dispatcher.Raise through the resolved handle.
func (r *Ref) Raise(t *sim.Task, m *mbuf.Mbuf) int { return r.d.raise(t, r, m) }

// RaiseRef implements Raiser's resolved-handle raise for inline dispatch.
func (d *Dispatcher) RaiseRef(t *sim.Task, r *Ref, m *mbuf.Mbuf) { d.raise(t, r, m) }

// Raises reports how many times an event has been raised.
func (d *Dispatcher) Raises(name Name) uint64 {
	if ev, ok := d.events[name]; ok {
		return ev.raises
	}
	return 0
}

// graphPanic marks dispatcher-integrity panics (raise of an undeclared
// event, recursion bound exceeded) so crash containment rethrows them
// instead of charging them to whichever extension's handler happened to be
// on the stack.
type graphPanic struct{ msg string }

func (g graphPanic) Error() string  { return g.msg }
func (g graphPanic) String() string { return g.msg }

// contain is crash containment, deferred around a guard or handler: a panic
// sets *panicked, except a dispatcher-integrity panic, which it rethrows.
func contain(panicked *bool) {
	if r := recover(); r != nil {
		if gp, isGraph := r.(graphPanic); isGraph {
			panic(gp)
		}
		*panicked = true
	}
}

// evalGuard runs one guard under crash containment. A panicking guard is
// treated as a reject; the fault is the caller's to count.
func (d *Dispatcher) evalGuard(t *sim.Task, b *Binding, m *mbuf.Mbuf) (ok, panicked bool) {
	defer contain(&panicked)
	return b.guard(t, m), false
}

// invoke runs one handler body under crash containment.
func (d *Dispatcher) invoke(t *sim.Task, b *Binding, m *mbuf.Mbuf) (panicked bool) {
	defer contain(&panicked)
	b.fn(t, m)
	return false
}

// fault applies the quarantine policy after a fault was recorded on b.
func (d *Dispatcher) fault(b *Binding) {
	if d.quar.Threshold == 0 || b.quarantined || b.removed {
		return
	}
	if b.stats.Faults() < d.quar.Threshold {
		return
	}
	b.quarantined = true
	if b.keyed {
		b.event.makeIndex() // the key outlives b's run membership
	}
	detach(b)
	d.ejected = append(d.ejected, b)
}

// scanRun charges every guard of run r and reports whether hit, the binding
// holding the packet's key, is r's member.
func (d *Dispatcher) scanRun(t *sim.Task, r *keyRun, hit *Binding) bool {
	if t.Sim().Metrics() != nil {
		for _, kb := range r.members {
			if kb != nil {
				t.ChargeProf(sim.ProfDispatch, kb.name, d.costs.GuardEval)
			}
		}
	} else {
		t.Charge(sim.Time(r.live) * d.costs.GuardEval)
	}
	r.scans++
	if hit == nil || hit.run != r {
		return false
	}
	hit.stats.GuardRejects-- // accepted: this scan is no reject
	return true
}

// Raise announces the event to every installed handler whose guard accepts
// the packet, charging the raising task per the cost model. It returns the
// number of handlers invoked. Raising an undeclared event panics: in SPIN
// only code linked against the event's interface can name it, so an unknown
// name is a programming error, not a runtime condition.
//
// Handlers and guards run under crash containment: a panic is caught and
// counted (BindingStats.Panics / GuardPanics), the time consumed stays
// charged, and dispatch continues. Containment preserves the graph, not the
// packet — a handler that panicked mid-mutation may leave the mbuf chain in
// a state later handlers must tolerate, exactly as they must tolerate any
// other handler's consumption of the packet.
func (d *Dispatcher) Raise(t *sim.Task, name Name, m *mbuf.Mbuf) int {
	ev, ok := d.events[name]
	if !ok {
		panic(graphPanic{fmt.Sprintf("event: raise of undeclared event %s", name)})
	}
	return d.raise(t, ev, m)
}

// raise dispatches to ev's handlers; see Raise for the semantics.
func (d *Dispatcher) raise(t *sim.Task, ev *Ref, m *mbuf.Mbuf) int {
	name := ev.name
	depth := atomic.AddInt32(&d.raiseDepth, 1)
	if depth > maxRaiseDepth {
		atomic.AddInt32(&d.raiseDepth, -1)
		panic(graphPanic{fmt.Sprintf("event: raise depth exceeds %d (cycle in protocol graph?) at %s", maxRaiseDepth, name)})
	}
	defer atomic.AddInt32(&d.raiseDepth, -1)
	ev.raises++
	if m != nil {
		if hdr := m.Hdr(); hdr != nil {
			t.Hop(hdr.Span, "event", string(name), hdr.Len)
		}
	}
	invoked := 0
	// Snapshot: handlers installed/removed during dispatch take effect on
	// the next raise, matching SPIN's install semantics. The snapshot is
	// copied into a per-depth scratch buffer reused across raises.
	for int(depth) > len(d.scratch) {
		d.scratch = append(d.scratch, nil)
	}
	bindings := append(d.scratch[depth-1][:0], ev.bindings...)
	d.scratch[depth-1] = bindings
	// Dispatch is two-phase: every guard is evaluated against the intact
	// packet first, then the matching handlers run. A handler may consume
	// the packet (strip headers, free it), which must not corrupt the
	// view later guards see. matched overlays the snapshot's storage: each
	// entry yields at most one match, so it only ever writes an index the
	// scan has already passed.
	matched := bindings[:0]
	var hit *Binding
	if ev.opts.Key != nil {
		if exact, wild, ok := ev.opts.Key(m); ok {
			if hit = ev.holder(exact); hit == nil && wild != exact {
				hit = ev.holder(wild)
			}
		}
	}
	for _, b := range bindings {
		if b.removed || b.quarantined {
			continue
		}
		if b.keyed {
			if d.scanRun(t, b.run, hit) {
				matched = append(matched, hit)
			}
			continue
		}
		if b.guard != nil {
			t.ChargeProf(sim.ProfDispatch, b.name, d.costs.GuardEval)
			before := t.Charged()
			ok, panicked := d.evalGuard(t, b, m)
			if d.quar.GuardBudget > 0 {
				if over := t.Charged() - before - d.quar.GuardBudget; over > 0 {
					// The guard overran its budget: terminate it there,
					// like a handler at its allotment.
					t.Refund(over)
					b.stats.GuardOverruns++
					d.fault(b)
				}
			}
			if panicked {
				b.stats.GuardPanics++
				d.fault(b)
				continue
			}
			if !ok {
				b.stats.GuardRejects++
				continue
			}
		}
		matched = append(matched, b)
	}
	for _, b := range matched {
		// Re-check liveness: an earlier handler in this same raise may have
		// uninstalled b, or b's guard fault may have quarantined it after it
		// matched. A removed binding must not fire on the stale snapshot.
		if b.removed || b.quarantined {
			continue
		}
		t.ChargeProf(sim.ProfDispatch, b.name, d.costs.Invoke)
		before := t.Charged()
		panicked := d.invoke(t, b, m)
		consumed := t.Charged() - before
		if b.allotment > 0 && consumed > b.allotment {
			// Premature termination: the handler stopped at its
			// allotment; CPU time beyond it was never consumed.
			t.Refund(consumed - b.allotment)
			b.stats.Terminations++
			d.fault(b)
		}
		if panicked {
			b.stats.Panics++
			d.fault(b)
		}
		if mm := t.Sim().Metrics(); mm != nil {
			// Attribute the handler body's post-clamp consumption; the
			// slice starts where the body began in virtual time.
			mm.Sample(t.CPU().Name(), sim.ProfHandler, b.name, t.Priority(),
				t.Start()+before, t.Charged()-before)
		}
		b.stats.Invocations++
		invoked++
	}
	if invoked == 0 && ev.opts.NoMatch != nil {
		ev.opts.NoMatch(t, m)
	}
	return invoked
}
