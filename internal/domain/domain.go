// Package domain reproduces SPIN's logical protection domains and dynamic
// linker (paper §2, [SFPB96]).
//
// A logical protection domain is a set of visible interfaces: named symbols
// bound to values (procedures, in practice). Extensions arrive as partially
// resolved objects — a list of imported symbol names plus the symbols they
// will export — and the linker resolves every import against the domain the
// extension is being linked into. If any symbol cannot be resolved, the link
// fails and the extension is rejected; this is the mechanism that keeps an
// untrusted protocol extension from naming (and therefore calling) anything
// outside the interfaces it was granted.
//
// Domains are first-class values referenced by ordinary Go pointers, the
// analogue of the paper's "typesafe pointers (capabilities)": code that does
// not hold a *Domain cannot link against it, and different extensions can be
// handed different domains.
package domain

import (
	"fmt"
	"sync"
)

// Symbol names an exported procedure or variable, conventionally
// "Interface.Item" as in "Ethernet.PacketRecv".
type Symbol string

// Domain is a logical protection domain: a namespace of exported symbols.
// Holding a *Domain is the capability to resolve and link against it.
type Domain struct {
	mu      sync.Mutex
	name    string
	symbols map[Symbol]any
}

// New creates an empty domain.
func New(name string) *Domain {
	return &Domain{name: name, symbols: make(map[Symbol]any)}
}

// Name returns the domain's diagnostic name.
func (d *Domain) Name() string { return d.name }

// Export binds sym to v in the domain. Exporting a symbol that already
// exists fails: interfaces are immutable once published.
func (d *Domain) Export(sym Symbol, v any) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.symbols[sym]; ok {
		return fmt.Errorf("domain %s: symbol %q already exported", d.name, sym)
	}
	d.symbols[sym] = v
	return nil
}

// MustExport is Export that panics on duplicate, for static setup code.
func (d *Domain) MustExport(sym Symbol, v any) {
	if err := d.Export(sym, v); err != nil {
		panic(err)
	}
}

// remove drops a symbol; used by Unlink.
func (d *Domain) remove(sym Symbol) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.symbols, sym)
}

// Resolve looks up a symbol.
func (d *Domain) Resolve(sym Symbol) (any, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.symbols[sym]
	return v, ok
}
