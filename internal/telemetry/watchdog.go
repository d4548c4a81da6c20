// Watchdogs: threshold and derivative rules evaluated over live series on
// every tick. A rule that holds for its full window raises one typed Alarm
// per episode — the alarm carries the watched series' full key (host plus
// flow labels) and the simulated timestamp, so bench rows and the chaos soak
// can assert both on "no alarms on the clean path" and on "exactly this flow
// stalled at exactly this time".
package telemetry

import "plexus/internal/sim"

// RuleKind classifies a watchdog rule.
type RuleKind uint8

const (
	// RuleNoProgress fires when the watched value has not changed for the
	// full window while the guard series is nonzero — e.g. a TCP
	// connection's snd.una frozen while bytes remain in flight.
	RuleNoProgress RuleKind = iota
	// RulePinnedAtCap fires when the watched value has sat at or above
	// Threshold for the full window — e.g. a switch port queue pinned at
	// capacity.
	RulePinnedAtCap
	// RuleNearCap fires the moment the watched value reaches Pct percent of
	// Threshold — e.g. pool high-water within 5% of the configured cap.
	RuleNearCap
)

func (k RuleKind) String() string {
	switch k {
	case RuleNoProgress:
		return "no-progress"
	case RulePinnedAtCap:
		return "pinned-at-cap"
	case RuleNearCap:
		return "near-cap"
	}
	return "unknown"
}

// Rule is one watchdog: a condition over a live series plus how long it must
// hold. Rules are registered at attach time and evaluated on every tick.
type Rule struct {
	// Name identifies the rule in alarms (e.g. "tcp.no_progress").
	Name string
	Kind RuleKind
	// Watch is the series the condition reads.
	Watch *Series
	// Guard arms RuleNoProgress only while its last value is nonzero;
	// nil means always armed.
	Guard *Series
	// Threshold is the capacity for RulePinnedAtCap and RuleNearCap.
	Threshold int64
	// Pct is the RuleNearCap percentage (e.g. 95 for "within 5% of cap").
	Pct int64
	// Window is how long the condition must hold for RuleNoProgress and
	// RulePinnedAtCap.
	Window sim.Time

	// Episode state.
	since    sim.Time
	holding  bool
	lastVal  int64
	haveLast bool
	fired    bool
}

// Alarm is one raised watchdog episode.
type Alarm struct {
	// At is the simulated time the rule's window lapsed (or, for
	// RuleNearCap, the tick the threshold was crossed).
	At sim.Time `json:"at"`
	// Since is when the offending condition began holding.
	Since sim.Time `json:"since"`
	// Rule and Kind identify the watchdog.
	Rule string   `json:"rule"`
	Kind RuleKind `json:"kind"`
	// Series is the watched series' full key — name, host, and flow labels.
	Series string `json:"series"`
	// Value is the watched value at the time of the alarm.
	Value int64 `json:"value"`
}

// Watch registers a rule. Registration is a setup-time operation; evaluation
// allocates nothing.
func (e *Engine) Watch(r Rule) *Rule {
	if r.Watch == nil {
		panic("telemetry: rule with no watched series")
	}
	rule := new(Rule)
	*rule = r
	e.rules = append(e.rules, rule)
	return rule
}

// Alarms returns the retained alarms in raise order (bounded by AlarmCap).
func (e *Engine) Alarms() []Alarm { return e.alarms }

// AlarmTotal reports how many alarms were ever raised (>= retained).
func (e *Engine) AlarmTotal() uint64 { return e.alarmTotal }

func (e *Engine) raise(r *Rule, now sim.Time, val int64) {
	r.fired = true
	a := Alarm{
		At:     now,
		Since:  r.since,
		Rule:   r.Name,
		Kind:   r.Kind,
		Series: r.Watch.key,
		Value:  val,
	}
	e.alarmTotal++
	if len(e.alarms) < cap(e.alarms) {
		e.alarms = append(e.alarms, a)
	}
}

// evalRules advances every rule's episode state by one tick.
func (e *Engine) evalRules(now sim.Time) {
	for _, r := range e.rules {
		if !r.Watch.seen {
			continue
		}
		v := r.Watch.lastVal
		switch r.Kind {
		case RuleNoProgress:
			armed := r.Guard == nil || (r.Guard.seen && r.Guard.lastVal != 0)
			if !r.haveLast || v != r.lastVal || !armed {
				// Progress (or disarmed): start a fresh episode.
				r.lastVal, r.haveLast = v, true
				r.since = now
				r.fired = false
				continue
			}
			if !r.fired && now-r.since >= r.Window {
				e.raise(r, now, v)
			}
		case RulePinnedAtCap:
			if v < r.Threshold {
				r.holding = false
				r.fired = false
				continue
			}
			if !r.holding {
				r.holding = true
				r.since = now
			}
			if !r.fired && now-r.since >= r.Window {
				e.raise(r, now, v)
			}
		case RuleNearCap:
			if r.Threshold <= 0 {
				continue
			}
			if v*100 >= r.Threshold*r.Pct {
				if !r.fired {
					r.since = now
					e.raise(r, now, v)
				}
			} else {
				r.fired = false
			}
		}
	}
}
