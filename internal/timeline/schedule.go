// Package timeline makes time a first-class axis of the simulation: a
// campaign becomes a sequence of epochs over one evolving world, driven
// by a declarative Schedule — population drift (provider arrivals and
// departures, churn scaling) and named counterfactual interventions
// firing at named epochs ("hydra-dissolution at epoch 5 of 14"). The
// paper's conclusions rest on longitudinal vantage data (weeks of
// crawls and logs over a drifting population); the timeline engine is
// what lets the reproduction ask its time-dependent questions instead
// of approximating them from one frozen snapshot.
//
// The package owns the schedule grammar (Parse/String round-trip
// canonically, fuzzed with a checked-in corpus), semantic validation
// and compilation into per-epoch world actions. Intervention names are
// resolved through an injected Resolver so the package depends only on
// scenario: internal/counterfactual provides the production resolver
// (ScheduleResolver), and internal/core runs compiled schedules
// (RunTimeline).
//
// Grammar — ';'-separated clauses:
//
//	epochs=N            number of epochs (required, 1..MaxEpochs)
//	days=N              virtual days per epoch (optional, default 1)
//	@E:<intervention>   named counterfactual fires at the start of epoch E
//	@E:arrive:<provider>:<n>   n cloud servers join on <provider>
//	@E:depart:<provider>       permanent provider outage
//	@E:churn:<factor>          residential churn scales by <factor>
//
// Example: "epochs=14;days=1;@5:hydra-dissolution;@9:arrive:choopa:120".
package timeline

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tcsb/internal/ipdb"
	"tcsb/internal/scenario"
)

// Grammar bounds. They exist so a hostile (or fuzzed) spec cannot
// request an absurd simulation; the validator rejects anything outside.
const (
	// MaxEpochs bounds the epoch count of one schedule.
	MaxEpochs = 128
	// MaxDaysPerEpoch bounds the days simulated per epoch.
	MaxDaysPerEpoch = 30
	// MaxScheduleDays bounds Epochs × DaysPerEpoch (one virtual year).
	MaxScheduleDays = 366
	// MaxArrival bounds one arrival event's server count.
	MaxArrival = 100000
	// MaxChurnFactor bounds the churn drift multiplier.
	MaxChurnFactor = 100.0
)

// EventKind is the action family of a scheduled event.
type EventKind int

const (
	// Intervention fires a named counterfactual from the registry.
	Intervention EventKind = iota
	// Arrive adds cloud servers on a provider (population drift up).
	Arrive
	// Depart is a permanent provider outage (population drift down).
	Depart
	// ChurnDrift scales residential churn aggressiveness.
	ChurnDrift
)

// Event is one scheduled action, firing at the start of its epoch
// (epoch 0 events apply to the freshly built world, before any tick —
// the timeline generalization of a plain counterfactual mutation).
type Event struct {
	Epoch int
	Kind  EventKind
	// Name is the intervention name (Intervention) or the ipdb provider
	// label (Arrive/Depart).
	Name string
	// Count is the arrival size (Arrive only).
	Count int
	// Factor is the churn multiplier (ChurnDrift only).
	Factor float64
}

// String renders the event in grammar form ("@5:hydra-dissolution").
func (e Event) String() string {
	switch e.Kind {
	case Arrive:
		return fmt.Sprintf("@%d:arrive:%s:%d", e.Epoch, e.Name, e.Count)
	case Depart:
		return fmt.Sprintf("@%d:depart:%s", e.Epoch, e.Name)
	case ChurnDrift:
		return fmt.Sprintf("@%d:churn:%s", e.Epoch, formatFactor(e.Factor))
	default:
		return fmt.Sprintf("@%d:%s", e.Epoch, e.Name)
	}
}

// Label is the short tag epoch results carry for a fired event
// (the event minus its @epoch prefix).
func (e Event) Label() string {
	s := e.String()
	if i := strings.IndexByte(s, ':'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// formatFactor renders a churn factor so that parsing it back yields
// the identical float64 (strconv round-trip guarantee).
func formatFactor(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Schedule is a declarative multi-epoch plan. The zero value is
// invalid; build one with Parse or fill the fields and call Validate.
type Schedule struct {
	// Epochs is the number of epochs (1..MaxEpochs).
	Epochs int
	// DaysPerEpoch is the virtual days simulated per epoch (default 1).
	DaysPerEpoch int
	// Events fire at the start of their epoch, in slice order within an
	// epoch (application order matters, exactly as for composed
	// counterfactual interventions).
	Events []Event
}

// String renders the canonical spec: epochs, days, then events sorted
// by epoch (stable, so same-epoch application order is preserved).
// Parse(s.String()) reproduces s exactly — the round-trip property the
// fuzzer pins.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epochs=%d;days=%d", s.Epochs, s.DaysPerEpoch)
	events := append([]Event(nil), s.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Epoch < events[j].Epoch })
	for _, e := range events {
		b.WriteByte(';')
		b.WriteString(e.String())
	}
	return b.String()
}

// nameOK reports whether a name token (intervention or provider label)
// is grammatically acceptable: lower-case identifiers with the
// separators both registries actually use.
func nameOK(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z':
		case r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return true
}

// Parse parses and structurally validates a schedule spec. Semantic
// resolution of intervention and provider names happens at Compile;
// Parse guarantees only that the shape is sound (bounds, epoch ranges,
// no duplicate clauses, canonical round-trip).
func Parse(spec string) (Schedule, error) {
	var s Schedule
	s.DaysPerEpoch = 1
	sawEpochs, sawDays := false, false
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		switch {
		case strings.HasPrefix(clause, "epochs="):
			if sawEpochs {
				return Schedule{}, fmt.Errorf("timeline: duplicate epochs= clause")
			}
			sawEpochs = true
			n, err := strconv.Atoi(clause[len("epochs="):])
			if err != nil {
				return Schedule{}, fmt.Errorf("timeline: bad epochs value %q", clause)
			}
			s.Epochs = n
		case strings.HasPrefix(clause, "days="):
			if sawDays {
				return Schedule{}, fmt.Errorf("timeline: duplicate days= clause")
			}
			sawDays = true
			n, err := strconv.Atoi(clause[len("days="):])
			if err != nil {
				return Schedule{}, fmt.Errorf("timeline: bad days value %q", clause)
			}
			s.DaysPerEpoch = n
		case strings.HasPrefix(clause, "@"):
			e, err := parseEvent(clause)
			if err != nil {
				return Schedule{}, err
			}
			s.Events = append(s.Events, e)
		default:
			return Schedule{}, fmt.Errorf("timeline: unknown clause %q (want epochs=, days= or @E:action)", clause)
		}
	}
	if !sawEpochs {
		return Schedule{}, fmt.Errorf("timeline: spec needs an epochs=N clause")
	}
	// Canonical event order: sorted by epoch, spec order within an epoch
	// (application order matters, so the sort must be stable). After
	// this, Parse(s.String()) reproduces s exactly.
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Epoch < s.Events[j].Epoch })
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// parseEvent parses one "@E:action" clause.
func parseEvent(clause string) (Event, error) {
	body := clause[1:]
	i := strings.IndexByte(body, ':')
	if i < 0 {
		return Event{}, fmt.Errorf("timeline: event %q needs @E:action", clause)
	}
	epoch, err := strconv.Atoi(body[:i])
	if err != nil {
		return Event{}, fmt.Errorf("timeline: bad epoch in %q", clause)
	}
	action := body[i+1:]
	parts := strings.Split(action, ":")
	ev := Event{Epoch: epoch}
	switch parts[0] {
	case "arrive":
		if len(parts) != 3 {
			return Event{}, fmt.Errorf("timeline: %q wants arrive:<provider>:<count>", clause)
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil {
			return Event{}, fmt.Errorf("timeline: bad arrival count in %q", clause)
		}
		ev.Kind, ev.Name, ev.Count = Arrive, parts[1], n
	case "depart":
		if len(parts) != 2 {
			return Event{}, fmt.Errorf("timeline: %q wants depart:<provider>", clause)
		}
		ev.Kind, ev.Name = Depart, parts[1]
	case "churn":
		if len(parts) != 2 {
			return Event{}, fmt.Errorf("timeline: %q wants churn:<factor>", clause)
		}
		f, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return Event{}, fmt.Errorf("timeline: bad churn factor in %q", clause)
		}
		ev.Kind, ev.Factor = ChurnDrift, f
	default:
		if len(parts) != 1 {
			return Event{}, fmt.Errorf("timeline: unknown action %q in %q", parts[0], clause)
		}
		ev.Kind, ev.Name = Intervention, parts[0]
	}
	if ev.Kind != ChurnDrift && !nameOK(ev.Name) {
		return Event{}, fmt.Errorf("timeline: bad name in %q (lower-case identifiers only)", clause)
	}
	return ev, nil
}

// Validate checks the structural invariants: bounds on epochs, days and
// event parameters, events inside [0, Epochs), and no exact duplicate
// event within an epoch. It is what Parse enforces, exposed separately
// for schedules built in code (and for re-checking after an -epochs
// override).
func (s Schedule) Validate() error {
	if s.Epochs < 1 || s.Epochs > MaxEpochs {
		return fmt.Errorf("timeline: epochs=%d outside [1, %d]", s.Epochs, MaxEpochs)
	}
	if s.DaysPerEpoch < 1 || s.DaysPerEpoch > MaxDaysPerEpoch {
		return fmt.Errorf("timeline: days=%d outside [1, %d]", s.DaysPerEpoch, MaxDaysPerEpoch)
	}
	if total := s.Epochs * s.DaysPerEpoch; total > MaxScheduleDays {
		return fmt.Errorf("timeline: %d epochs × %d days = %d simulated days exceeds %d",
			s.Epochs, s.DaysPerEpoch, total, MaxScheduleDays)
	}
	seen := make(map[Event]bool, len(s.Events))
	for _, e := range s.Events {
		if e.Epoch < 0 || e.Epoch >= s.Epochs {
			return fmt.Errorf("timeline: event %q fires outside epochs [0, %d)", e, s.Epochs)
		}
		switch e.Kind {
		case Arrive:
			if e.Count < 1 || e.Count > MaxArrival {
				return fmt.Errorf("timeline: event %q count outside [1, %d]", e, MaxArrival)
			}
		case ChurnDrift:
			if !(e.Factor > 0) || e.Factor > MaxChurnFactor {
				return fmt.Errorf("timeline: event %q factor outside (0, %v]", e, MaxChurnFactor)
			}
		}
		if e.Kind != ChurnDrift && !nameOK(e.Name) {
			return fmt.Errorf("timeline: event %q has a bad name", e)
		}
		if seen[e] {
			return fmt.Errorf("timeline: duplicate event %q", e)
		}
		seen[e] = true
	}
	return nil
}

// --- Compilation ---

// Mutator is a resolved intervention: the (config rewrite, world
// mutation) pair a counterfactual registers. Applied mid-run, the
// rewrite goes through World.ApplyRewrite so behaviour fields take
// effect from the next tick.
type Mutator struct {
	Rewrite func(*scenario.Config)
	Mutate  func(*scenario.World)
}

// Resolver resolves a scheduled intervention name, returning an error
// both for unknown names and for interventions that cannot fire
// mid-run (a rewrite of construction-time population shape applied to
// a built world would be a silent no-op — refusing at Compile is what
// keeps every scheduled event observable). The production resolver is
// counterfactual.ScheduleResolver; tests inject their own. The
// indirection keeps this package importable from core without a
// dependency cycle through the counterfactual registry.
type Resolver func(name string) (Mutator, error)

// Action is one compiled world mutation with its display label.
type Action struct {
	Label string
	Apply func(*scenario.World)
}

// Compiled is a semantically validated schedule with per-epoch actions
// ready to fire. It is immutable after Compile.
type Compiled struct {
	schedule Schedule
	spec     string
	perEpoch [][]Action
}

// Compile resolves the schedule's names — interventions through res,
// provider labels against the ipdb address plan — and returns the
// executable form. All semantic errors are reported here, before any
// simulation is paid for.
func (s Schedule) Compile(res Resolver) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	providers := make(map[string]bool)
	for _, p := range ipdb.Default().Providers() {
		providers[p] = true
	}
	c := &Compiled{
		schedule: s,
		spec:     s.String(),
		perEpoch: make([][]Action, s.Epochs),
	}
	for _, e := range s.Events {
		e := e
		var act Action
		switch e.Kind {
		case Arrive:
			if !providers[e.Name] {
				return nil, fmt.Errorf("timeline: event %q: unknown provider %q", e, e.Name)
			}
			act = Action{Label: e.Label(), Apply: func(w *scenario.World) {
				w.ProviderArrival(e.Name, e.Count)
			}}
		case Depart:
			if !providers[e.Name] {
				return nil, fmt.Errorf("timeline: event %q: unknown provider %q", e, e.Name)
			}
			act = Action{Label: e.Label(), Apply: func(w *scenario.World) {
				w.ProviderOutage(e.Name)
			}}
		case ChurnDrift:
			act = Action{Label: e.Label(), Apply: func(w *scenario.World) {
				w.ScaleResidentialChurn(e.Factor)
			}}
		default:
			if res == nil {
				return nil, fmt.Errorf("timeline: event %q needs an intervention resolver", e)
			}
			m, err := res(e.Name)
			if err != nil {
				return nil, fmt.Errorf("timeline: event %q: %v", e, err)
			}
			act = Action{Label: e.Label(), Apply: func(w *scenario.World) {
				if m.Rewrite != nil {
					w.ApplyRewrite(m.Rewrite)
				}
				if m.Mutate != nil {
					m.Mutate(w)
				}
			}}
		}
		c.perEpoch[e.Epoch] = append(c.perEpoch[e.Epoch], act)
	}
	return c, nil
}

// Schedule returns the compiled schedule's declarative form.
func (c *Compiled) Schedule() Schedule { return c.schedule }

// Spec returns the canonical spec string the schedule compiled from.
func (c *Compiled) Spec() string { return c.spec }

// ActionsAt returns the actions firing at the start of the given epoch
// (nil for quiet epochs).
func (c *Compiled) ActionsAt(epoch int) []Action {
	if epoch < 0 || epoch >= len(c.perEpoch) {
		return nil
	}
	return c.perEpoch[epoch]
}

// LabelsAt returns the display labels of the epoch's actions.
func (c *Compiled) LabelsAt(epoch int) []string {
	acts := c.ActionsAt(epoch)
	if len(acts) == 0 {
		return nil
	}
	out := make([]string, len(acts))
	for i, a := range acts {
		out[i] = a.Label
	}
	return out
}
