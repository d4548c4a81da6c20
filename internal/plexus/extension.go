package plexus

// Extension handles: atomic install and atomic unload of application
// extensions. The paper installs extensions through the dynamic linker
// (internal/domain) and never says what happens when one is removed while
// its bindings, timers, and packet buffers are live — this file answers
// that: an Extension owns every resource its install created, installation
// is all-or-nothing (rollback on partial failure), and Unload tears all of
// it down and accounts for leaked mbufs against an install-time pool
// baseline.

import (
	"errors"
	"fmt"

	"plexus/internal/domain"
	"plexus/internal/event"
	"plexus/internal/sim"
)

// ErrExtensionUnloaded reports a second Unload of the same extension.
var ErrExtensionUnloaded = errors.New("plexus: extension already unloaded")

// ExtensionSpec describes an application extension for atomic installation.
type ExtensionSpec struct {
	// Name identifies the extension in errors and diagnostics.
	Name string
	// Imports are resolved against the extension domain (or the kernel
	// domain when Privileged); any missing symbol rejects the install.
	Imports []domain.Symbol
	// Exports are published into the domain on success, removed at unload.
	Exports map[domain.Symbol]any
	// Privileged links against the full kernel domain ("few extensions
	// have access to this domain").
	Privileged bool
	// Install runs at link time with the resolved imports available via
	// the context. Every binding, timer, and closer it registers on the
	// context is owned by the returned Extension; if Install returns an
	// error, everything registered so far is rolled back and the
	// extension is not linked.
	Install func(ctx *ExtensionCtx) error
}

// ExtensionCtx is the installation context handed to ExtensionSpec.Install.
// Resources registered here are torn down together — on rollback when the
// install fails partway, or on Extension.Unload.
type ExtensionCtx struct {
	ext      *Extension
	resolved map[domain.Symbol]any
}

// Resolve returns the value a named import was bound to at link time.
func (c *ExtensionCtx) Resolve(sym domain.Symbol) (any, bool) {
	v, ok := c.resolved[sym]
	return v, ok
}

// Adopt records a binding (typically returned by a protocol manager's
// install call) as owned by the extension: it is uninstalled on rollback
// and unload.
func (c *ExtensionCtx) Adopt(b *event.Binding) {
	if b != nil {
		c.ext.bindings = append(c.ext.bindings, b)
	}
}

// After schedules fn once after d of simulated time; the pending timer is
// owned by the extension and cancelled at unload.
func (c *ExtensionCtx) After(d sim.Time, label string, fn func()) sim.Timer {
	tm := c.ext.st.Host.Sim.After(d, label, fn)
	c.AdoptTimer(tm)
	return tm
}

// AdoptTimer records a timer as owned by the extension.
func (c *ExtensionCtx) AdoptTimer(tm sim.Timer) {
	c.ext.timers = append(c.ext.timers, tm)
}

// Every schedules fn to run each period of simulated time until the
// extension is unloaded.
func (c *ExtensionCtx) Every(period sim.Time, label string, fn func()) {
	tk := &extTicker{ext: c.ext, period: period, label: label, fn: fn}
	c.ext.tickers = append(c.ext.tickers, tk)
	tk.timer = c.ext.st.Host.Sim.After(period, label, tk.fire)
}

// OnUnload registers a cleanup function (close an endpoint, release a
// buffer). Closers run in reverse registration order at rollback/unload.
func (c *ExtensionCtx) OnUnload(fn func()) {
	if fn != nil {
		c.ext.closers = append(c.ext.closers, fn)
	}
}

// extTicker is a periodic extension timer; unload stops the live timer and
// prevents rescheduling.
type extTicker struct {
	ext     *Extension
	period  sim.Time
	label   string
	fn      func()
	timer   sim.Timer
	stopped bool
}

func (tk *extTicker) fire() {
	if tk.stopped {
		return
	}
	tk.fn()
	if tk.stopped { // fn may have unloaded the extension
		return
	}
	tk.timer = tk.ext.st.Host.Sim.After(tk.period, tk.label, tk.fire)
}

// stop cancels the ticker; reports whether a timer fire was still pending.
func (tk *extTicker) stop() bool {
	tk.stopped = true
	return tk.timer.Stop()
}

// Extension is an installed application extension: the handle that owns its
// bindings, timers, and cleanup actions, and the capability to unload them
// atomically.
type Extension struct {
	name     string
	st       *Stack
	linked   *domain.Linked
	bindings []*event.Binding
	timers   []sim.Timer
	tickers  []*extTicker
	closers  []func()
	// baseInUse is the pool's live-mbuf count at install: the baseline
	// Unload compares against to detect leaks.
	baseInUse int64
	unloaded  bool
}

// ExtensionStats aggregates dispatch and fault counters across the
// extension's bindings.
type ExtensionStats struct {
	Bindings      int
	Quarantined   int // bindings ejected by the dispatcher's quarantine
	Invocations   uint64
	Faults        uint64
	Panics        uint64
	GuardPanics   uint64
	Terminations  uint64
	GuardOverruns uint64
}

// Stats returns the extension's aggregated counters.
func (e *Extension) Stats() ExtensionStats {
	st := ExtensionStats{Bindings: len(e.bindings)}
	for _, b := range e.bindings {
		if b.Quarantined() {
			st.Quarantined++
		}
		s := b.Stats()
		st.Invocations += s.Invocations
		st.Faults += s.Faults()
		st.Panics += s.Panics
		st.GuardPanics += s.GuardPanics
		st.Terminations += s.Terminations
		st.GuardOverruns += s.GuardOverruns
	}
	return st
}

// UnloadReport accounts for what Unload tore down.
type UnloadReport struct {
	// Bindings is how many actively dispatching bindings were uninstalled.
	Bindings int
	// Quarantined is how many of the extension's bindings the dispatcher
	// had already ejected before the unload.
	Quarantined int
	// TimersStopped counts pending timers and tickers cancelled.
	TimersStopped int
	// ClosersRun counts OnUnload cleanups executed.
	ClosersRun int
	// LeakedMbufs is the pool's live-mbuf delta versus the install-time
	// baseline, measured after every closer has run. At quiesce (no
	// unrelated packets in flight) a well-behaved extension reports 0;
	// mid-traffic the delta includes frames owned by others, so treat it
	// as a diagnostic only when the host is idle.
	LeakedMbufs int64
}

// Unload atomically removes the extension: uninstalls every binding, stops
// every timer, runs the registered closers in reverse order, unlinks the
// exports from the domain, and reports the pool-accounting delta. A second
// Unload returns ErrExtensionUnloaded.
func (e *Extension) Unload() (UnloadReport, error) {
	if e.unloaded {
		return UnloadReport{}, fmt.Errorf("%w: %s", ErrExtensionUnloaded, e.name)
	}
	e.unloaded = true
	var r UnloadReport
	for _, b := range e.bindings {
		if b.Quarantined() {
			r.Quarantined++
		}
		if e.st.Host.Disp.Uninstall(b) {
			r.Bindings++
		}
	}
	for _, tk := range e.tickers {
		if tk.stop() {
			r.TimersStopped++
		}
	}
	for _, tm := range e.timers {
		if tm.Stop() {
			r.TimersStopped++
		}
	}
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
		r.ClosersRun++
	}
	r.LeakedMbufs = e.st.Host.Pool.Stats().InUse - e.baseInUse
	if e.linked != nil {
		if err := e.linked.Unlink(); err != nil {
			return r, fmt.Errorf("plexus: extension %s: %w", e.name, err)
		}
	}
	return r, nil
}

// rollback tears down a partially installed extension (install-failure
// path): same teardown as Unload, minus the unlink (the link never
// completed) and the report.
func (e *Extension) rollback() {
	e.unloaded = true
	for _, b := range e.bindings {
		e.st.Host.Disp.Uninstall(b)
	}
	for _, tk := range e.tickers {
		tk.stop()
	}
	for _, tm := range e.timers {
		tm.Stop()
	}
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

// InstallExtension atomically installs an application extension: the
// imports are resolved against the protection domain, the spec's Install
// runs with them, and either everything it created is live on return or —
// on any failure — everything is rolled back and an error is returned.
func (st *Stack) InstallExtension(spec ExtensionSpec) (*Extension, error) {
	ext := &Extension{
		name:      spec.Name,
		st:        st,
		baseInUse: st.Host.Pool.Stats().InUse,
	}
	ctx := &ExtensionCtx{ext: ext}
	dext := &domain.Extension{
		Name:    spec.Name,
		Imports: spec.Imports,
		Exports: spec.Exports,
		Init: func(resolved map[domain.Symbol]any) error {
			ctx.resolved = resolved
			if spec.Install == nil {
				return nil
			}
			return spec.Install(ctx)
		},
	}
	against := st.Host.ExtensionDomain
	if spec.Privileged {
		against = st.Host.KernelDomain
	}
	linked, err := domain.Link(dext, against, against)
	if err != nil {
		ext.rollback()
		return nil, fmt.Errorf("plexus: extension %q: %w", spec.Name, err)
	}
	ext.linked = linked
	return ext, nil
}
