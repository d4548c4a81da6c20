package domain

import (
	"fmt"
	"sort"
	"strings"
)

// Extension is a partially resolved object file: the symbols it imports, the
// symbols it will export once linked, and an initializer that receives the
// resolved imports. In SPIN the Modula-3 compiler signs these objects; here
// the type system plays that role — an Extension can only be built from Go
// values already in the process.
type Extension struct {
	// Name identifies the extension in errors and diagnostics.
	Name string
	// Imports lists every external symbol the extension references. The
	// link fails unless all of them resolve.
	Imports []Symbol
	// Exports lists the symbols the extension provides, installed into the
	// target domain on success and removed at unlink.
	Exports map[Symbol]any
	// Init runs at link time with the resolved imports; returning an error
	// aborts the link (no exports are installed). May be nil.
	Init func(resolved map[Symbol]any) error
}

// UnresolvedError reports a link rejected for referencing symbols outside the
// logical protection domain — the paper's "the link will fail and the
// extension will be rejected".
type UnresolvedError struct {
	Extension string
	Domain    string
	Missing   []Symbol
}

func (e *UnresolvedError) Error() string {
	names := make([]string, len(e.Missing))
	for i, s := range e.Missing {
		names[i] = string(s)
	}
	return fmt.Sprintf("domain: extension %q rejected: unresolved symbols against domain %q: %s",
		e.Extension, e.Domain, strings.Join(names, ", "))
}

// Linked is a successfully linked extension; it is the handle for unlinking.
type Linked struct {
	ext      *Extension
	into     *Domain
	unlinked bool
}

// Link resolves ext's imports against the domain `against`, runs the
// initializer, and installs ext's exports into the domain `into` (often the
// same domain). It returns an *UnresolvedError if any import is missing.
func Link(ext *Extension, against, into *Domain) (*Linked, error) {
	resolved := make(map[Symbol]any, len(ext.Imports))
	var missing []Symbol
	for _, sym := range ext.Imports {
		v, ok := against.Resolve(sym)
		if !ok {
			missing = append(missing, sym)
			continue
		}
		resolved[sym] = v
	}
	if len(missing) > 0 {
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		return nil, &UnresolvedError{Extension: ext.Name, Domain: against.Name(), Missing: missing}
	}
	if ext.Init != nil {
		if err := ext.Init(resolved); err != nil {
			return nil, fmt.Errorf("domain: extension %q init failed: %w", ext.Name, err)
		}
	}
	var installed []Symbol
	for sym, v := range ext.Exports {
		if err := into.Export(sym, v); err != nil {
			// Roll back anything already installed.
			for _, s := range installed {
				into.remove(s)
			}
			return nil, fmt.Errorf("domain: extension %q: %w", ext.Name, err)
		}
		installed = append(installed, sym)
	}
	return &Linked{ext: ext, into: into}, nil
}

// Unlink removes the extension's exports from its domain. Unlinking twice is
// an error.
func (l *Linked) Unlink() error {
	if l.unlinked {
		return fmt.Errorf("domain: extension %q already unlinked", l.ext.Name)
	}
	l.unlinked = true
	for sym := range l.ext.Exports {
		l.into.remove(sym)
	}
	return nil
}
