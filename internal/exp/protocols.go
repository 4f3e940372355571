// Package exp defines and runs the paper's evaluation experiments: one
// scenario per table and figure in §5, built on the unified scenario API.
// Each experiment produces a Report containing both formatted text (the rows
// or series the paper shows) and the structured per-scheme results so tests
// and benchmarks can assert the qualitative shape of the outcome.
package exp

import "repro/internal/scenario"

// registryWith clones the default scenario registry and adds the given
// protocols (the experiment's RemyCCs and any baseline not already present),
// so every flow in an experiment spec resolves by scheme name.
func registryWith(protocols ...scenario.Protocol) (*scenario.Registry, error) {
	reg := scenario.Default().Clone()
	for _, p := range protocols {
		if reg.HasProtocol(p.Name) {
			continue
		}
		if err := reg.RegisterProtocol(p); err != nil {
			return nil, err
		}
	}
	return reg, nil
}
