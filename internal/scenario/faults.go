package scenario

import (
	"fmt"

	"repro/internal/faults"
)

// LinkFaultSpec attaches one fault schedule to one link of the spec. The
// schedule's fields (outages, loss, delay_spikes, rate_droops) are inlined in
// the JSON form alongside the link name.
type LinkFaultSpec struct {
	// Link names the topology link the schedule applies to. Single-bottleneck
	// specs leave it empty — the schedule applies to the bottleneck.
	Link string `json:"link,omitempty"`
	faults.Schedule
}

// FaultsSpec is the spec's declarative fault-injection section: one entry per
// faulted link. Links without an entry run fault-free. Fault randomness
// (burst-loss chains, jitter) draws from per-link streams derived from the
// run seed with a dedicated salt, exactly like synthesized link traces, so
// repetitions see decorrelated-but-reproducible fault realizations.
type FaultsSpec struct {
	Links []LinkFaultSpec `json:"links"`
}

// schedule returns the fault schedule declared for the named link (the
// link/queue form's one entry carries the empty name), or nil.
func (f *FaultsSpec) schedule(link string) *faults.Schedule {
	if f == nil {
		return nil
	}
	for i := range f.Links {
		if f.Links[i].Link == link {
			return &f.Links[i].Schedule
		}
	}
	return nil
}

// validate checks the section against the spec's shape: schedules must be
// well-formed and non-empty, and each must target a resolvable link.
func (f *FaultsSpec) validate(specName string, topo *TopologySpec) error {
	if len(f.Links) == 0 {
		return fmt.Errorf("scenario: spec %q has a faults section with no link schedules", specName)
	}
	seen := make(map[string]bool, len(f.Links))
	for i := range f.Links {
		lf := &f.Links[i]
		if lf.Schedule.Empty() {
			return fmt.Errorf("scenario: spec %q faults entry %d (link %q) declares no faults", specName, i, lf.Link)
		}
		if err := lf.Schedule.Validate(); err != nil {
			return fmt.Errorf("scenario: spec %q faults entry %d (link %q): %w", specName, i, lf.Link, err)
		}
		if seen[lf.Link] {
			return fmt.Errorf("scenario: spec %q has two fault schedules for link %q", specName, lf.Link)
		}
		seen[lf.Link] = true
		if topo == nil {
			if lf.Link != "" {
				return fmt.Errorf("scenario: spec %q faults entry %d names link %q but the spec has no topology", specName, i, lf.Link)
			}
		} else {
			if lf.Link == "" {
				return fmt.Errorf("scenario: spec %q faults entry %d must name a topology link", specName, i)
			}
			found := false
			for _, l := range topo.Links {
				if l.Name == lf.Link {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("scenario: spec %q faults entry %d references unknown link %q", specName, i, lf.Link)
			}
		}
	}
	return nil
}

// WithFaults sets the spec's fault-injection section.
func WithFaults(f FaultsSpec) Option {
	return func(s *Spec) { s.Faults = &f }
}
