package forward

import (
	"fmt"

	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// SpliceStats counts user-level forwarder activity.
type SpliceStats struct {
	Accepted      uint64
	BytesToServer uint64
	BytesToClient uint64
}

// Splice is the conventional user-level TCP forwarder: a process that
// accepts connections on the service port and splices each to a fresh
// connection to the backend, copying data in both directions through user
// space. It runs above the transport layer, so (as the paper notes) it
// terminates the client's TCP connection rather than preserving end-to-end
// semantics, and every byte crosses the user/kernel boundary twice.
type Splice struct {
	st          *plexus.Stack
	backend     view.IP4
	backendPort uint16
	stats       SpliceStats
}

// NewSplice starts the user-level forwarder on servicePort.
func NewSplice(st *plexus.Stack, servicePort uint16, backend view.IP4, backendPort uint16) (*Splice, error) {
	s := &Splice{st: st, backend: backend, backendPort: backendPort}
	// ListenTCP's accept callback gets the client side; the backend side
	// is dialled there.
	if _, err := st.ListenTCP(servicePort, plexus.TCPAppOptions{}, s.accept); err != nil {
		return nil, fmt.Errorf("forward: %w", err)
	}
	return s, nil
}

// Stats returns a snapshot of counters.
func (s *Splice) Stats() SpliceStats { return s.stats }

// accept wires one spliced pair. It runs in the forwarder's application
// context (user level on a monolithic host).
func (s *Splice) accept(t *sim.Task, client *plexus.TCPApp) {
	s.stats.Accepted++
	var backend *plexus.TCPApp
	var pendingToBackend [][]byte

	// Client-side plumbing was fixed at listen time; we attach the data
	// paths by replacing the app-level options now.
	clientOpts := client.Options()
	clientOpts.OnRecv = func(t2 *sim.Task, _ *plexus.TCPApp, data []byte) {
		s.stats.BytesToServer += uint64(len(data))
		if backend == nil {
			cp := append([]byte(nil), data...)
			pendingToBackend = append(pendingToBackend, cp)
			return
		}
		_ = backend.Send(t2, data)
	}
	clientOpts.OnPeerFin = func(t2 *sim.Task, c *plexus.TCPApp) {
		if backend != nil {
			backend.Close(t2)
		}
		c.Close(t2)
	}
	client.SetOptions(clientOpts)

	// The dial fails only when every ephemeral port is taken; the client
	// connection then stays open with nothing behind it.
	_, _ = s.st.ConnectTCP(t, s.backend, s.backendPort, plexus.TCPAppOptions{
		OnEstablished: func(t2 *sim.Task, b2 *plexus.TCPApp) {
			backend = b2
			for _, d := range pendingToBackend {
				_ = b2.Send(t2, d)
			}
			pendingToBackend = nil
		},
		OnRecv: func(t2 *sim.Task, _ *plexus.TCPApp, data []byte) {
			s.stats.BytesToClient += uint64(len(data))
			_ = client.Send(t2, data)
		},
		OnPeerFin: func(t2 *sim.Task, b2 *plexus.TCPApp) {
			client.Close(t2)
			b2.Close(t2)
		},
	})
}
