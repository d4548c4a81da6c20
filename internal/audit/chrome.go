// Chrome trace bridge: render recorded TCP state transitions as instant
// events on each host's "states" track, merged into the same trace_event
// file as the CPU profile and telemetry counters.
package audit

import (
	"fmt"

	"plexus/internal/stats"
	"plexus/internal/tcp"
)

// ChromeInstants converts transitions (in recording order) into Chrome
// instant events. Each carries the connection four-tuple and the
// transition's cause as args, so clicking a marker in Perfetto shows which
// segment or timer moved the state machine.
func ChromeInstants(evs []tcp.Transition) []stats.ChromeInstant {
	out := make([]stats.ChromeInstant, 0, len(evs))
	for _, ev := range evs {
		out = append(out, stats.ChromeInstant{
			Host: ev.Host,
			Name: fmt.Sprintf("%s→%s", ev.Old, ev.New),
			At:   ev.At,
			Args: map[string]any{
				"conn":  fmt.Sprintf("%v:%d-%v:%d", ev.LocalAddr, ev.LocalPort, ev.RemoteAddr, ev.RemotePort),
				"cause": ev.Cause.Kind.String(),
			},
		})
	}
	return out
}
