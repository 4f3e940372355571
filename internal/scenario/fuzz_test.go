package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// fuzzBuildable bounds the specs FuzzSpecRoundTrip builds a session for, so
// the fuzzer cannot synthesise a giant trace, a giant population, the
// deliberate chaos/ failures, or a read of a path of its own choosing.
func fuzzBuildable(s Spec) bool {
	if s.DurationSeconds > 10 || s.NumFlows() > 64 {
		return false
	}
	flows := append([]FlowSpec{}, s.Flows...)
	if s.Churn != nil {
		for _, c := range s.Churn.Classes {
			flows = append(flows, c.flowSpec())
		}
	}
	for _, f := range flows {
		if strings.HasPrefix(f.Scheme, "chaos/") || f.RemyCC != "" {
			return false
		}
	}
	return true
}

// FuzzSpecRoundTrip checks the declarative pipeline on arbitrary inputs:
// any JSON that decodes into a valid Spec must re-encode to a stable fixed
// point — decode(encode(decode(x))) produces the same bytes as
// encode(decode(x)) — and re-encoding must never turn a valid spec into an
// invalid or undecodable one. A bounded valid spec must furthermore compile
// (or fail with a name-resolution error) into a scenario harness.NewSession
// accepts: nothing Validate lets through may die on a harness-level validation
// error or panic. The session is built, not run. The corpus is seeded from the
// checked-in example scenario files.
//
// Run with: go test ./internal/scenario -fuzz FuzzSpecRoundTrip
func FuzzSpecRoundTrip(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if len(seeds) == 0 {
		f.Log("no example scenario seeds found; fuzzing from literals only")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatalf("reading seed %s: %v", path, err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"link":{"rate_bps":1e6},"flows":[{"scheme":"newreno","rtt_ms":10,` +
		`"workload":{"mode":"time","on":{"type":"constant","value":1},"off":{"type":"constant","value":1}}}],` +
		`"duration_seconds":1}`))
	f.Add([]byte(`{"flows":[]}`))
	f.Add([]byte(`not json`))
	// Topology corpus: a minimal two-hop parking lot with routed flows, and a
	// reverse-path spec, so the fuzzer mutates node/link/route structure too.
	f.Add([]byte(`{"topology":{"nodes":[{"name":"a"},{"name":"b"},{"name":"c"}],` +
		`"links":[{"name":"l1","from":"a","to":"b","rate_bps":1e7,"delay_ms":10},` +
		`{"name":"l2","from":"b","to":"c","rate_bps":6e6,"delay_ms":10,"queue":{"kind":"sfqcodel"}}]},` +
		`"flows":[{"scheme":"newreno","rtt_ms":40,"path":["l1","l2"],` +
		`"workload":{"mode":"time","on":{"type":"constant","value":1},"off":{"type":"constant","value":1}}}],` +
		`"duration_seconds":1}`))
	f.Add([]byte(`{"topology":{"nodes":[{"name":"a"},{"name":"b"}],"ack_bytes":40,` +
		`"links":[{"name":"fwd","from":"a","to":"b","rate_bps":1.5e7},` +
		`{"name":"rev","from":"b","to":"a","rate_bps":3e5,"queue":{"capacity_packets":100}}]},` +
		`"flows":[{"scheme":"cbr","rate_bps":1e6,"rtt_ms":100,"path":["fwd"],"reverse_path":["rev"],` +
		`"workload":{"mode":"bytes","on":{"type":"exponential","mean":1e5},"off":{"type":"exponential","mean":0.5}}}],` +
		`"duration_seconds":1}`))
	// Churn corpus: a topology spec whose load arrives via a churn section
	// (Poisson interarrivals, Pareto sizes, capped population), so the fuzzer
	// mutates the churn structure alongside nodes/links/routes.
	f.Add([]byte(`{"topology":{"nodes":[{"name":"a"},{"name":"b"},{"name":"c"}],` +
		`"links":[{"name":"h1","from":"a","to":"b","rate_bps":1e7,"delay_ms":10},` +
		`{"name":"h2","from":"b","to":"c","rate_bps":6e6,"delay_ms":10}]},` +
		`"flows":[{"scheme":"cubic","rtt_ms":40,"path":["h1","h2"],` +
		`"workload":{"mode":"bytes","on":{"type":"exponential","mean":1e5},"off":{"type":"exponential","mean":0.5}}}],` +
		`"churn":{"max_live_flows":64,"classes":[` +
		`{"scheme":"newreno","rtt_ms":40,"path":["h1","h2"],"max_arrivals":100,` +
		`"interarrival":{"type":"exponential","mean":0.1},"size":{"type":"pareto","xm":147,"alpha":0.5,"shift":16040}},` +
		`{"scheme":"newreno","rtt_ms":40,"path":["h2"],` +
		`"interarrival":{"type":"constant","value":0.2},"size":{"type":"exponential","mean":2e4}}]},` +
		`"duration_seconds":1}`))
	// A churn-only spec (no static flows).
	f.Add([]byte(`{"link":{"rate_bps":1e7},"churn":{"classes":[{"scheme":"newreno","rtt_ms":50,` +
		`"interarrival":{"type":"exponential","mean":0.05},"size":{"type":"constant","value":2e4}}]},` +
		`"duration_seconds":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Unmarshal(data)
		if err != nil {
			return // undecodable input is out of scope
		}
		if s.Validate() != nil {
			return // invalid specs need not round-trip
		}
		b1, err := s.Marshal()
		if err != nil {
			t.Fatalf("valid spec failed to encode: %v", err)
		}
		s2, err := Unmarshal(b1)
		if err != nil {
			t.Fatalf("re-decoding our own encoding failed: %v\nencoded: %s", err, b1)
		}
		if err := s2.Validate(); err != nil {
			t.Fatalf("spec became invalid after a round trip: %v\nencoded: %s", err, b1)
		}
		b2, err := s2.Marshal()
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encoding is not a fixed point\nfirst:  %s\nsecond: %s", b1, b2)
		}
		if !fuzzBuildable(s) {
			return
		}
		scn, _, err := s.Compile(nil, 0)
		if err != nil {
			return // unregistered scheme, queue kind or link model
		}
		if _, err := harness.NewSession(scn); err != nil {
			t.Fatalf("valid spec compiled to a scenario the harness rejects: %v\nspec: %s", err, b1)
		}
	})
}
