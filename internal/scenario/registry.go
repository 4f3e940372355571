package scenario

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/aqm"
	"repro/internal/cc"
	"repro/internal/cc/cbr"
	"repro/internal/cc/compound"
	"repro/internal/cc/cubic"
	"repro/internal/cc/dctcp"
	"repro/internal/cc/newreno"
	"repro/internal/cc/vegas"
	"repro/internal/cc/xcp"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/traces"
)

// Queue kind names registered by default.
const (
	QueueDropTail = "droptail"
	QueueSfqCoDel = "sfqcodel"
	QueueXCP      = "xcp"
	QueueECN      = "ecn"
)

// Protocol couples a congestion-control scheme with the bottleneck queue it
// expects (end-to-end schemes run over plain DropTail; Cubic/sfqCoDel, XCP
// and DCTCP need router assistance).
type Protocol struct {
	// Name is the label used in specs, tables and figures.
	Name string
	// Queue is the queue kind the scheme is evaluated over; "" means
	// "droptail".
	Queue string
	// New constructs a fresh algorithm instance for one flow.
	New func() cc.Algorithm

	// stock is set by Registry.Protocol when the resolving registry marks
	// the scheme as a stock protocol (see Registry.stockSchemes): its New
	// builds an algorithm whose Reset(0) restores exactly what New returns,
	// so a session may hand one it already has to another flow.
	stock bool
	// remy is a RemyCC protocol's rule table: New builds
	// core.NewSender(remy). Registry.Protocol keeps it only when the
	// resolving registry marks the scheme as a RemyCC (see
	// Registry.remySchemes); a session may then hand a sender it already has,
	// rebound to remy, to another flow.
	remy *core.WhiskerTree
}

// remySpareKey is the key a session keeps spare RemyCC senders under, which
// serve any rule table once rebound: the name of the scheme that loads rule
// tables by path, which is no stock protocol's.
const remySpareKey = "remy"

// QueueKind returns the protocol's bottleneck queue kind name.
func (p Protocol) QueueKind() string {
	if p.Queue == "" {
		return QueueDropTail
	}
	return p.Queue
}

// spareKey returns the key a session keeps the protocol's spare algorithms
// under: its name for a stock protocol, remySpareKey for a RemyCC, else "".
func (p Protocol) spareKey() string {
	switch {
	case p.stock:
		return p.Name
	case p.remy != nil:
		return remySpareKey
	}
	return ""
}

// Validate reports whether the protocol is usable.
func (p Protocol) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("scenario: protocol without a name")
	}
	if p.New == nil {
		return fmt.Errorf("scenario: protocol %q without a constructor", p.Name)
	}
	return nil
}

// ProtocolFactory resolves a flow entry into a concrete protocol. Factories
// may consult flow fields (the "remy" factory loads flow.RemyCC).
type ProtocolFactory func(flow FlowSpec) (Protocol, error)

// QueueEnv is the per-run context a queue factory builds against.
type QueueEnv struct {
	// Engine is the run's event engine (XCP schedules control ticks on it).
	Engine *sim.Engine
	// CapacityBps is the best available estimate of the link rate: the fixed
	// rate, the spec's XCP capacity override, or a trace's long-term average.
	CapacityBps float64
}

// QueueFactory builds a bottleneck queue for one run.
type QueueFactory func(q QueueSpec, env QueueEnv) (netsim.Queue, error)

// LinkModel synthesizes a delivery-opportunity trace for a trace-driven
// bottleneck (the cellular experiments).
type LinkModel struct {
	// Name labels the model.
	Name string
	// PacketBytes is the packet size used to convert rates to opportunities.
	PacketBytes int
	// Append draws a trace of the given duration, appends it to dst and
	// returns the extended slice. A session keeps what it returns and draws
	// the next world's trace of the same link into it, so Append must not
	// return memory of its own that it uses again.
	Append func(dst []sim.Time, duration sim.Time, rng *sim.RNG) ([]sim.Time, error)
}

// Generate draws a trace of the given duration into new memory.
func (m LinkModel) Generate(duration sim.Time, rng *sim.RNG) ([]sim.Time, error) {
	return m.Append(nil, duration, rng)
}

// Registry resolves the names appearing in Specs: protocol schemes, queue
// kinds, and link models. It replaces the per-binary lookup tables the
// simulation entry points used to carry. A Registry is safe for concurrent
// use.
type Registry struct {
	mu        sync.RWMutex
	protocols map[string]ProtocolFactory
	queues    map[string]QueueFactory
	links     map[string]LinkModel
	// stockQueues marks the queue kinds whose factories are the stock ones
	// mustRegisterBuiltins installs: pure functions of the queue spec, so
	// their queues may be reused across worlds (see queueKey).
	stockQueues map[string]bool
	// stockSchemes likewise marks the stock protocols (BaselineProtocols and
	// DCTCP): their algorithms may be reused across flows and worlds (see
	// parts.algorithm). A protocol a caller registers never is.
	stockSchemes map[string]bool
	// remySchemes marks the RemyCC protocols of RegisterRemy and the "remy"
	// factory: their senders may be reused, each rebound to the rule table
	// its protocol resolves to here.
	remySchemes map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		protocols: make(map[string]ProtocolFactory),
		queues:    make(map[string]QueueFactory),
		links:     make(map[string]LinkModel),

		stockQueues:  make(map[string]bool),
		stockSchemes: make(map[string]bool),
		remySchemes:  make(map[string]bool),
	}
}

// RegisterProtocolFactory adds a named protocol factory. Registering a name
// twice is an error.
func (r *Registry) RegisterProtocolFactory(name string, f ProtocolFactory) error {
	if name == "" {
		return fmt.Errorf("scenario: protocol registration without a name")
	}
	if f == nil {
		return fmt.Errorf("scenario: protocol %q registered with nil factory", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.protocols[name]; dup {
		return fmt.Errorf("scenario: protocol %q already registered", name)
	}
	r.protocols[name] = f
	return nil
}

// RegisterProtocol adds a concrete protocol under its own name.
func (r *Registry) RegisterProtocol(p Protocol) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return r.RegisterProtocolFactory(p.Name, func(FlowSpec) (Protocol, error) { return p, nil })
}

// RegisterRemy adds an in-memory RemyCC rule table as a protocol (purely
// end-to-end, so it runs over DropTail). Experiments that train tables on the
// fly register them this way on a cloned registry.
func (r *Registry) RegisterRemy(name string, tree *core.WhiskerTree) error {
	if tree == nil {
		return fmt.Errorf("scenario: RegisterRemy(%q) with nil tree", name)
	}
	if err := r.RegisterProtocol(Remy(name, tree)); err != nil {
		return err
	}
	r.mu.Lock()
	r.remySchemes[name] = true
	r.mu.Unlock()
	return nil
}

// Protocol resolves a flow entry to a concrete protocol.
func (r *Registry) Protocol(flow FlowSpec) (Protocol, error) {
	r.mu.RLock()
	f, ok := r.protocols[flow.Scheme]
	stock := r.stockSchemes[flow.Scheme]
	remy := r.remySchemes[flow.Scheme]
	r.mu.RUnlock()
	if !ok {
		return Protocol{}, fmt.Errorf("scenario: unknown protocol %q (known: %v)", flow.Scheme, r.Protocols())
	}
	p, err := f(flow)
	if err != nil {
		return Protocol{}, err
	}
	if err := p.Validate(); err != nil {
		return Protocol{}, err
	}
	p.stock = stock
	if !remy {
		p.remy = nil
	}
	return p, nil
}

// Protocols lists the registered protocol names, sorted.
func (r *Registry) Protocols() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedKeys(r.protocols)
}

// HasProtocol reports whether a protocol name is registered.
func (r *Registry) HasProtocol(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.protocols[name]
	return ok
}

// RegisterQueue adds a named queue discipline. Registering a name twice is an
// error.
func (r *Registry) RegisterQueue(name string, f QueueFactory) error {
	if name == "" {
		return fmt.Errorf("scenario: queue registration without a name")
	}
	if f == nil {
		return fmt.Errorf("scenario: queue %q registered with nil factory", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.queues[name]; dup {
		return fmt.Errorf("scenario: queue %q already registered", name)
	}
	r.queues[name] = f
	return nil
}

// Queue returns the named queue factory.
func (r *Registry) Queue(name string) (QueueFactory, error) {
	r.mu.RLock()
	f, ok := r.queues[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("scenario: unknown queue kind %q (known: %v)", name, r.Queues())
	}
	return f, nil
}

// Queues lists the registered queue kind names, sorted.
func (r *Registry) Queues() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedKeys(r.queues)
}

// RegisterLinkModel adds a named trace-driven link model. Registering a name
// twice is an error.
func (r *Registry) RegisterLinkModel(m LinkModel) error {
	if m.Name == "" {
		return fmt.Errorf("scenario: link model registration without a name")
	}
	if m.Append == nil {
		return fmt.Errorf("scenario: link model %q registered with nil generator", m.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.links[m.Name]; dup {
		return fmt.Errorf("scenario: link model %q already registered", m.Name)
	}
	r.links[m.Name] = m
	return nil
}

// LinkModel returns the named link model.
func (r *Registry) LinkModel(name string) (LinkModel, error) {
	r.mu.RLock()
	m, ok := r.links[name]
	r.mu.RUnlock()
	if !ok {
		return LinkModel{}, fmt.Errorf("scenario: unknown link model %q (known: %v)", name, r.LinkModels())
	}
	return m, nil
}

// LinkModels lists the registered link model names, sorted.
func (r *Registry) LinkModels() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedKeys(r.links)
}

// Clone returns an independent copy of the registry. Experiments clone the
// default registry to add run-specific protocols (freshly trained RemyCCs)
// without mutating shared state.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := NewRegistry()
	//lint:ignore detmap map-to-map copy keyed identically; iteration order is unobservable
	for name, f := range r.protocols {
		out.protocols[name] = f
	}
	//lint:ignore detmap map-to-map copy keyed identically; iteration order is unobservable
	for name, f := range r.queues {
		out.queues[name] = f
	}
	//lint:ignore detmap map-to-map copy keyed identically; iteration order is unobservable
	for name, m := range r.links {
		out.links[name] = m
	}
	//lint:ignore detmap map-to-map copy keyed identically; iteration order is unobservable
	for name, ok := range r.stockQueues {
		out.stockQueues[name] = ok
	}
	//lint:ignore detmap map-to-map copy keyed identically; iteration order is unobservable
	for name, ok := range r.stockSchemes {
		out.stockSchemes[name] = ok
	}
	//lint:ignore detmap map-to-map copy keyed identically; iteration order is unobservable
	for name, ok := range r.remySchemes {
		out.remySchemes[name] = ok
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// defaultRegistry is built once and shared; callers that need to add entries
// clone it first.
var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the shared registry pre-populated with every protocol, AQM
// and link model in the repository. Do not register on it directly — Clone it
// instead, so concurrent users keep a stable view.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry()
		mustRegisterBuiltins(defaultReg)
	})
	return defaultReg
}

func mustRegisterBuiltins(r *Registry) {
	for _, p := range append(BaselineProtocols(), DCTCP()) {
		must(r.RegisterProtocol(p))
		r.stockSchemes[p.Name] = true
	}
	// "remy" resolves a rule table from the flow's RemyCC file path, which is
	// how JSON-driven specs name pre-trained tables. Every world a session
	// builds resolves its flows again, so the protocols of parsed tables are
	// cached by path (tables are immutable once loaded).
	var remyTables sync.Map // path -> Protocol
	must(r.RegisterProtocolFactory("remy", func(flow FlowSpec) (Protocol, error) {
		if flow.RemyCC == "" {
			return Protocol{}, fmt.Errorf("scenario: scheme \"remy\" needs a remycc rule-table path")
		}
		if cached, ok := remyTables.Load(flow.RemyCC); ok {
			return cached.(Protocol), nil
		}
		tree, err := core.LoadFile(flow.RemyCC)
		if err != nil {
			return Protocol{}, fmt.Errorf("scenario: loading RemyCC %s: %w", flow.RemyCC, err)
		}
		actual, _ := remyTables.LoadOrStore(flow.RemyCC, Remy("remy", tree))
		return actual.(Protocol), nil
	}))
	r.remySchemes["remy"] = true

	// "cbr" is the unresponsive constant-rate cross-traffic source of the
	// beyond-dumbbell scenarios; its rate comes from the flow's rate_bps.
	must(r.RegisterProtocolFactory("cbr", func(flow FlowSpec) (Protocol, error) {
		if flow.RateBps <= 0 {
			return Protocol{}, fmt.Errorf("scenario: scheme %q needs a positive flow rate_bps", "cbr")
		}
		rate := flow.RateBps
		// The pacing gap must match the size of the packets the transport
		// actually sends, or the offered rate is off by mtu/1500.
		packetBytes := flow.specMTU
		if packetBytes <= 0 {
			packetBytes = netsim.MTU
		}
		return Protocol{Name: "cbr", New: func() cc.Algorithm { return cbr.New(rate, packetBytes) }}, nil
	}))

	must(r.RegisterQueue(QueueDropTail, func(q QueueSpec, env QueueEnv) (netsim.Queue, error) {
		return aqm.NewDropTail(capacityOf(q))
	}))
	must(r.RegisterQueue(QueueSfqCoDel, func(q QueueSpec, env QueueEnv) (netsim.Queue, error) {
		return aqm.NewSfqCoDel(1024, capacityOf(q))
	}))
	must(r.RegisterQueue(QueueECN, func(q QueueSpec, env QueueEnv) (netsim.Queue, error) {
		return aqm.NewECNMarking(capacityOf(q), ecnThresholdOf(q))
	}))
	must(r.RegisterQueue(QueueXCP, func(q QueueSpec, env QueueEnv) (netsim.Queue, error) {
		if env.CapacityBps <= 0 {
			return nil, fmt.Errorf("scenario: XCP queue needs a capacity estimate")
		}
		return aqm.NewXCPQueue(env.Engine, capacityOf(q), env.CapacityBps)
	}))
	for _, kind := range []string{QueueDropTail, QueueSfqCoDel, QueueECN, QueueXCP} {
		r.stockQueues[kind] = true
	}

	// Deliberate failure injectors for the campaign fail-safe tests; see
	// chaos.go.
	registerChaos(r)

	for _, model := range []traces.CellularModel{traces.VerizonLTEModel(), traces.ATTLTEModel()} {
		m := model
		name := shortModelName(m.Name)
		must(r.RegisterLinkModel(LinkModel{
			Name:        name,
			PacketBytes: m.PacketBytes,
			Append:      m.Append,
		}))
	}
}

// shortModelName maps the traces package's display names to the registry keys
// the binaries have always used ("verizon", "att").
func shortModelName(name string) string {
	switch name {
	case "verizon-lte":
		return "verizon"
	case "att-lte":
		return "att"
	default:
		return name
	}
}

func capacityOf(q QueueSpec) int {
	if q.CapacityPackets <= 0 {
		return 1000
	}
	return q.CapacityPackets
}

func ecnThresholdOf(q QueueSpec) int {
	if q.ECNThresholdPackets <= 0 {
		return dctcp.MarkThresholdPackets
	}
	return q.ECNThresholdPackets
}

// queueKey names a stock discipline's queue by its kind and everything its
// factory reads: queues with equal keys are interchangeable once reset, so a
// session rebuilding its world reuses one an earlier world left behind
// instead of building another. The zero key names no queue.
type queueKey struct {
	kind                string
	capacity, threshold int
	capacityBps         float64
}

// queueKey returns the key of a queue of the given kind built from q with the
// given capacity estimate: the zero key for a registered factory, which may
// have state or side effects of its own, so its queues are never reused.
func (r *Registry) queueKey(kind string, q QueueSpec, capacityBps float64) queueKey {
	r.mu.RLock()
	stock := r.stockQueues[kind]
	r.mu.RUnlock()
	if !stock {
		return queueKey{}
	}
	k := queueKey{kind: kind, capacity: capacityOf(q)}
	switch kind {
	case QueueECN:
		k.threshold = ecnThresholdOf(q)
	case QueueXCP:
		k.capacityBps = capacityBps
	}
	return k
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// NewReno returns the NewReno baseline protocol.
func NewReno() Protocol {
	return Protocol{Name: "newreno", New: func() cc.Algorithm { return newreno.New() }}
}

// Vegas returns the Vegas baseline protocol.
func Vegas() Protocol {
	return Protocol{Name: "vegas", New: func() cc.Algorithm { return vegas.New() }}
}

// Cubic returns the Cubic baseline protocol over a DropTail queue.
func Cubic() Protocol {
	return Protocol{Name: "cubic", New: func() cc.Algorithm { return cubic.New() }}
}

// Compound returns the Compound TCP baseline protocol.
func Compound() Protocol {
	return Protocol{Name: "compound", New: func() cc.Algorithm { return compound.New() }}
}

// CubicSfqCoDel returns Cubic running over an sfqCoDel bottleneck (the
// router-assisted baseline the paper calls Cubic-over-sfqCoDel).
func CubicSfqCoDel() Protocol {
	return Protocol{Name: "cubic/sfqcodel", Queue: QueueSfqCoDel, New: func() cc.Algorithm { return cubic.New() }}
}

// XCP returns the XCP protocol (sender plus XCP router queue).
func XCP() Protocol {
	return Protocol{Name: "xcp", Queue: QueueXCP, New: func() cc.Algorithm { return xcp.New(netsim.MTU) }}
}

// DCTCP returns DCTCP over an ECN-marking queue (datacenter experiment).
func DCTCP() Protocol {
	return Protocol{Name: "dctcp", Queue: QueueECN, New: func() cc.Algorithm { return dctcp.New() }}
}

// Remy returns a RemyCC protocol executing the given rule table over a
// DropTail bottleneck (RemyCCs are purely end-to-end).
func Remy(name string, tree *core.WhiskerTree) Protocol {
	return Protocol{Name: name, New: func() cc.Algorithm { return core.NewSender(tree) }, remy: tree}
}

// BaselineProtocols returns the human-designed schemes of Figures 4–9 in the
// order the paper lists them: end-to-end schemes first, then the two
// router-assisted ones.
func BaselineProtocols() []Protocol {
	return []Protocol{NewReno(), Vegas(), Cubic(), Compound(), CubicSfqCoDel(), XCP()}
}
