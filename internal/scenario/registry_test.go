package scenario

import (
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestDefaultRegistryContents(t *testing.T) {
	reg := Default()
	for _, name := range []string{"newreno", "vegas", "cubic", "compound", "cubic/sfqcodel", "xcp", "dctcp", "remy"} {
		found := false
		for _, p := range reg.Protocols() {
			if p == name {
				found = true
			}
		}
		if !found {
			t.Errorf("default registry missing protocol %q", name)
		}
	}
	for _, name := range []string{QueueDropTail, QueueSfqCoDel, QueueXCP, QueueECN} {
		if _, err := reg.Queue(name); err != nil {
			t.Errorf("default registry missing queue %q: %v", name, err)
		}
	}
	for _, name := range []string{"verizon", "att"} {
		if _, err := reg.LinkModel(name); err != nil {
			t.Errorf("default registry missing link model %q: %v", name, err)
		}
	}
}

func TestRegistryLookupErrors(t *testing.T) {
	reg := Default()
	if _, err := reg.Protocol(FlowSpec{Scheme: "carrier-pigeon"}); err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Errorf("unknown protocol lookup: %v", err)
	}
	if _, err := reg.Queue("teleport"); err == nil {
		t.Error("unknown queue accepted")
	}
	if _, err := reg.LinkModel("starlink"); err == nil {
		t.Error("unknown link model accepted")
	}
	// The file-driven remy factory needs a rule-table path.
	if _, err := reg.Protocol(FlowSpec{Scheme: "remy"}); err == nil {
		t.Error("remy without a rule table accepted")
	}
	if _, err := reg.Protocol(FlowSpec{Scheme: "remy", RemyCC: "/does/not/exist.json"}); err == nil {
		t.Error("remy with a missing rule table accepted")
	}
}

func TestRegistryDuplicateRegistration(t *testing.T) {
	reg := NewRegistry()
	p := NewReno()
	if err := reg.RegisterProtocol(p); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterProtocol(p); err == nil {
		t.Error("duplicate protocol registration accepted")
	}
	queueFactory := func(QueueSpec, QueueEnv) (netsim.Queue, error) { return nil, nil }
	if err := reg.RegisterQueue("q", queueFactory); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterQueue("q", queueFactory); err == nil {
		t.Error("duplicate queue registration accepted")
	}
	model := LinkModel{Name: "m", Append: func([]sim.Time, sim.Time, *sim.RNG) ([]sim.Time, error) { return nil, nil }}
	if err := reg.RegisterLinkModel(model); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterLinkModel(model); err == nil {
		t.Error("duplicate link model registration accepted")
	}
}

func TestRegistryCloneIsolation(t *testing.T) {
	base := Default()
	clone := base.Clone()
	tree := core.DefaultWhiskerTree()
	if err := clone.RegisterRemy("remy-test-clone", tree); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Protocol(FlowSpec{Scheme: "remy-test-clone"}); err != nil {
		t.Errorf("clone lookup: %v", err)
	}
	if _, err := base.Protocol(FlowSpec{Scheme: "remy-test-clone"}); err == nil {
		t.Error("clone registration leaked into the default registry")
	}
	// Registering the same name twice on the clone fails.
	if err := clone.RegisterRemy("remy-test-clone", tree); err == nil {
		t.Error("duplicate remy registration accepted")
	}
	if err := clone.RegisterRemy("remy-nil", nil); err == nil {
		t.Error("nil tree accepted")
	}
}

func TestRegistryInvalidRegistrations(t *testing.T) {
	reg := NewRegistry()
	if err := reg.RegisterProtocol(Protocol{}); err == nil {
		t.Error("empty protocol accepted")
	}
	if err := reg.RegisterProtocol(Protocol{Name: "x"}); err == nil {
		t.Error("protocol without constructor accepted")
	}
	if err := reg.RegisterProtocolFactory("", func(FlowSpec) (Protocol, error) { return Protocol{}, nil }); err == nil {
		t.Error("unnamed factory accepted")
	}
	if err := reg.RegisterProtocolFactory("y", nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := reg.RegisterQueue("", nil); err == nil {
		t.Error("unnamed queue accepted")
	}
	if err := reg.RegisterLinkModel(LinkModel{Name: "m"}); err == nil {
		t.Error("link model without generator accepted")
	}
	if err := reg.RegisterLinkModel(LinkModel{Append: func([]sim.Time, sim.Time, *sim.RNG) ([]sim.Time, error) { return nil, nil }}); err == nil {
		t.Error("unnamed link model accepted")
	}
}

func TestProtocolQueueKindDefaults(t *testing.T) {
	if NewReno().QueueKind() != QueueDropTail {
		t.Error("end-to-end schemes default to droptail")
	}
	if XCP().QueueKind() != QueueXCP || DCTCP().QueueKind() != QueueECN || CubicSfqCoDel().QueueKind() != QueueSfqCoDel {
		t.Error("router-assisted schemes carry their queue kind")
	}
	for _, p := range BaselineProtocols() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if algo := p.New(); algo == nil || algo.Name() == "" {
			t.Errorf("%s constructor", p.Name)
		}
	}
	var _ cc.Algorithm = DCTCP().New()
}
