package optimizer

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
)

// maxMemorySamplesPerWhisker caps how many memory points are retained per
// rule for the median-split step, bounding memory use during long searches.
const maxMemorySamplesPerWhisker = 4096

// maxCacheEntries bounds the evaluation memo cache. Entries are
// per-(tree, specimen) usage summaries; when the bound is exceeded the cache
// is cleared, which affects only speed, never results.
const maxCacheEntries = 1 << 16

// specimenResult is the outcome of simulating one rule table on one
// specimen network: the summed per-flow utilities, the number of flows that
// contributed, and per-rule usage. Results are immutable once created, so
// one result may be shared between cache entries — that sharing is how
// usage-pruned candidate scoring transfers an incumbent's result to a
// candidate that provably behaves identically on the specimen.
type specimenResult struct {
	sum   float64
	flows int
	// counts[i] is how many times rule i was used on an ACK.
	counts []int64
	// consulted[i] reports whether rule i was looked up at all, including
	// the connection-(re)start lookups that do not count as uses. A rule
	// with consulted[i] == false cannot have influenced the simulation.
	consulted []bool
	// samples[i] holds the memory points that triggered rule i; nil unless
	// the evaluation was asked to collect them (Evaluate does, the cheaper
	// usage-only paths do not).
	samples [][]core.Memory
}

// evalKey identifies one deterministic simulation: the behaviour-relevant
// encoding of the rule table, the specimen network (including its seed),
// and the design configuration it runs under, as the Evaluator's interned id
// for it (configID). The id rather than the 104-byte ConfigRange keeps the
// key at 56 bytes, small enough for a map to store it inline: Go's maps put
// a key larger than 128 bytes in an allocation of its own on every insert.
type evalKey struct {
	tree string
	spec Specimen
	cfg  int
}

// EvalStats counts the work an Evaluator performed and the work it avoided.
type EvalStats struct {
	// SimulatedRuns is the number of (tree, specimen) simulations executed.
	SimulatedRuns int64
	// CacheHits is the number of (tree, specimen) evaluations served from
	// the memo cache.
	CacheHits int64
	// PrunedRuns is the number of candidate (tree, specimen) simulations
	// skipped because the incumbent never consulted the modified whisker on
	// that specimen (the incumbent's result was transferred instead).
	PrunedRuns int64
}

// Add returns the component-wise sum of two counter sets (for aggregating
// stats across several Optimize calls, e.g. a checkpointed round loop).
func (s EvalStats) Add(o EvalStats) EvalStats {
	return EvalStats{
		SimulatedRuns: s.SimulatedRuns + o.SimulatedRuns,
		CacheHits:     s.CacheHits + o.CacheHits,
		PrunedRuns:    s.PrunedRuns + o.PrunedRuns,
	}
}

// Sub returns the component-wise difference s − o (for deriving one round's
// counters from two cumulative snapshots).
func (s EvalStats) Sub(o EvalStats) EvalStats {
	return EvalStats{
		SimulatedRuns: s.SimulatedRuns - o.SimulatedRuns,
		CacheHits:     s.CacheHits - o.CacheHits,
		PrunedRuns:    s.PrunedRuns - o.PrunedRuns,
	}
}

// CacheHitRate returns the fraction of evaluations served from the cache.
func (s EvalStats) CacheHitRate() float64 {
	total := s.SimulatedRuns + s.CacheHits + s.PrunedRuns
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// PruneRate returns the fraction of evaluations avoided by usage pruning.
func (s EvalStats) PruneRate() float64 {
	total := s.SimulatedRuns + s.CacheHits + s.PrunedRuns
	if total == 0 {
		return 0
	}
	return float64(s.PrunedRuns) / float64(total)
}

func (s EvalStats) String() string {
	return fmt.Sprintf("simulated=%d cache_hits=%d pruned=%d (hit_rate=%.1f%% prune_rate=%.1f%%)",
		s.SimulatedRuns, s.CacheHits, s.PrunedRuns, 100*s.CacheHitRate(), 100*s.PruneRate())
}

// Evaluation is the outcome of simulating one candidate RemyCC on a set of
// specimen networks.
type Evaluation struct {
	// Score is the mean per-flow objective value over all specimens (higher
	// is better) — the "overall figure of merit" of §4.3.
	Score float64
	// UseCounts[i] is the number of times rule i was looked up.
	UseCounts []int64
	// MemorySamples[i] holds (a capped subset of) the memory points that
	// triggered rule i, used to find the median split point. Only Evaluate
	// collects samples; usage-only evaluations leave this empty.
	MemorySamples [][]core.Memory
	// FlowsScored is the number of (specimen, flow) pairs that contributed.
	FlowsScored int

	// perSpec holds the per-specimen results (in specimen order) backing
	// this evaluation; ScoreCandidates uses them to decide which specimens a
	// modified whisker can actually affect.
	perSpec []*specimenResult
}

// MostUsed returns the index of the most-used rule among those whose epoch
// (per the supplied tree) equals epoch, or -1 if no such rule was used.
func (e Evaluation) MostUsed(tree *core.WhiskerTree, epoch int) int {
	best := -1
	var bestCount int64
	for i, w := range tree.Whiskers() {
		if w.Epoch != epoch || i >= len(e.UseCounts) {
			continue
		}
		if e.UseCounts[i] > bestCount {
			bestCount = e.UseCounts[i]
			best = i
		}
	}
	return best
}

// MostUsedAny returns the index of the most-used rule regardless of epoch,
// or -1 if no rule was used at all.
func (e Evaluation) MostUsedAny() int {
	best := -1
	var bestCount int64
	for i, c := range e.UseCounts {
		if c > bestCount {
			bestCount = c
			best = i
		}
	}
	return best
}

// MedianMemory returns the per-axis median of the memory samples recorded
// for rule idx, or false if there are none.
func (e Evaluation) MedianMemory(idx int) (core.Memory, bool) {
	if idx < 0 || idx >= len(e.MemorySamples) || len(e.MemorySamples[idx]) == 0 {
		return core.Memory{}, false
	}
	samples := e.MemorySamples[idx]
	axis := func(i int) float64 {
		vals := make([]float64, len(samples))
		for j, m := range samples {
			vals[j] = m.Axis(i)
		}
		sort.Float64s(vals)
		return vals[len(vals)/2]
	}
	return core.Memory{AckEWMA: axis(0), SendEWMA: axis(1), RTTRatio: axis(2)}, true
}

// usageCollector implements core.UsageRecorder (and core.TouchRecorder) for
// one specimen simulation at a time: a batch worker's senders stay bound to
// its one collector, which reset points at each job's own rows, since the
// rows of the last are the job's result.
type usageCollector struct {
	counts    []int64
	consulted []bool
	samples   [][]core.Memory // nil when sample collection is disabled
}

// reset points the collector at a job's zeroed rows, one element per rule of
// its tree, which the caller owns (RunBatchLocal carves them from its
// batch's blocks).
//
//repo:hotpath per-job rebinding of a batch worker's usage collector
func (u *usageCollector) reset(counts []int64, consulted []bool, collectSamples bool) {
	*u = usageCollector{counts: counts, consulted: consulted}
	if collectSamples {
		u.samples = make([][]core.Memory, len(counts))
	}
}

// RecordUse implements core.UsageRecorder.
func (u *usageCollector) RecordUse(idx int, m core.Memory) {
	if idx < 0 || idx >= len(u.counts) {
		return
	}
	u.counts[idx]++
	u.consulted[idx] = true
	if u.samples != nil && len(u.samples[idx]) < maxMemorySamplesPerWhisker {
		u.samples[idx] = append(u.samples[idx], m)
	}
}

// RecordTouch implements core.TouchRecorder: connection-start lookups mark
// the rule as consulted without counting as a use.
func (u *usageCollector) RecordTouch(idx int) {
	if idx < 0 || idx >= len(u.consulted) {
		return
	}
	u.consulted[idx] = true
}

// Evaluator scores candidate rule tables on specimen networks. Every
// (tree, specimen) simulation is deterministic, which the evaluator exploits
// twice: results are memoized by the tree's behaviour-relevant canonical
// key, and candidate trees that differ from an incumbent only in a rule a
// specimen never consulted reuse the incumbent's result for that specimen
// outright. Both shortcuts are exact — they return bit-identical data to a
// fresh simulation.
type Evaluator struct {
	// Objective is the per-flow utility function (Equation 1).
	Objective stats.Objective
	// Workers bounds the number of concurrent specimen simulations; <= 0
	// means runtime.GOMAXPROCS(0) (scenario.PoolSize).
	Workers int
	// NoCache disables the evaluation memo cache (and with it usage
	// pruning, which transfers results through the cache). Every call then
	// re-simulates from scratch — the pre-optimization behaviour, kept for
	// benchmarking and equivalence tests.
	NoCache bool
	// Backend, when non-nil, executes pending simulation batches instead of
	// the in-process runner pool — the seam the distributed evaluation plane
	// (internal/distrib) plugs into. A Backend must be exact: its results
	// must be bit-identical to RunBatchLocal's for every job. The memo cache
	// and usage pruning stay on this side of the seam, so only genuine
	// simulations cross it.
	Backend BatchRunner

	mu sync.Mutex
	// configs interns each ConfigRange the evaluator has met, for evalKey.
	// It is never cleared, so an id names one range for the evaluator's
	// life; it holds one entry per distinct range (a range holding a NaN
	// equals no range, itself included, and takes a new entry each time).
	configs map[ConfigRange]int
	cache   map[evalKey]*specimenResult
	// seeded marks cache keys filled by usage-pruning transfer rather than
	// simulation; the first lookup of such a key is counted as a pruned run
	// instead of a cache hit.
	seeded map[evalKey]bool
	stats  EvalStats
	// rows are evaluateTrees' working rows between calls.
	rows *evalRows
}

// NewEvaluator returns an evaluator for the given objective.
func NewEvaluator(obj stats.Objective) *Evaluator {
	return &Evaluator{Objective: obj}
}

// Stats returns the evaluator's cumulative work counters.
func (e *Evaluator) Stats() EvalStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// configID returns the id evalKey carries for cfg.
func (e *Evaluator) configID(cfg ConfigRange) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	id, ok := e.configs[cfg]
	if !ok {
		if e.configs == nil {
			e.configs = make(map[ConfigRange]int)
		}
		id = len(e.configs)
		e.configs[cfg] = id
	}
	return id
}

func (e *Evaluator) cacheGet(k evalKey, needSamples bool) *specimenResult {
	if e.NoCache {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.cache[k]
	if r == nil || (needSamples && r.samples == nil) {
		return nil
	}
	if e.seeded[k] {
		delete(e.seeded, k)
		e.stats.PrunedRuns++
	} else {
		e.stats.CacheHits++
	}
	return r
}

func (e *Evaluator) cachePut(k evalKey, r *specimenResult) {
	if e.NoCache {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ensureRoomLocked()
	e.cache[k] = r
}

// cacheSeed transfers an incumbent's per-specimen result to a candidate key
// whose simulation is provably identical. Keys that already hold a result
// (e.g. a candidate re-proposed from an earlier iteration) are left alone —
// those were avoided by memoization, not pruning.
func (e *Evaluator) cacheSeed(k evalKey, r *specimenResult) {
	if e.NoCache {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.cache[k]; ok {
		return
	}
	e.ensureRoomLocked()
	e.cache[k] = r
	e.seeded[k] = true
}

func (e *Evaluator) ensureRoomLocked() {
	if e.cache == nil || len(e.cache) >= maxCacheEntries {
		e.cache = make(map[evalKey]*specimenResult)
		e.seeded = make(map[evalKey]bool)
	}
}

// flowUtility evaluates Equation 1 for one flow, normalizing throughput by
// the fair share of the bottleneck and delay by the flow's minimum RTT so
// scores are comparable across specimens with different scales.
func flowUtility(objective stats.Objective, m stats.FlowMetrics, fairShareBps float64) float64 {
	const epsilon = 1e-6
	tput := m.ThroughputBps / fairShareBps
	if tput < epsilon {
		tput = epsilon
	}
	delay := 1.0
	if m.MinRTT > 0 {
		delay = m.AvgRTT / m.MinRTT
		if delay < 1 {
			delay = 1
		}
	}
	u := objective.Score(tput, delay)
	if math.IsInf(u, -1) || math.IsNaN(u) {
		u = -1e9
	}
	return u
}

// runBatch resolves a batch of pending simulations through the configured
// backend, or in-process when none is set.
func (e *Evaluator) runBatch(jobs []BatchJob) ([]BatchResult, error) {
	if e.Backend != nil {
		return e.Backend.RunBatch(e.Objective, jobs)
	}
	return RunBatchLocal(e.Objective, e.Workers, jobs)
}

// canonicalKeys encodes each tree once; the keys are then shared by cache
// seeding and evaluateTrees.
func canonicalKeys(trees []*core.WhiskerTree) []string {
	keys := make([]string, len(trees))
	for ti, tree := range trees {
		keys[ti] = tree.CanonicalKey()
	}
	return keys
}

// evalRows are evaluateTrees' working rows: the batch's jobs, their memo
// keys, which (tree, specimen) cells each job answers, and the pending jobs
// by key. An evaluator keeps one set between calls; concurrent calls each
// take their own.
type evalRows struct {
	jobs    []BatchJob
	keys    []evalKey
	refs    []pendingRef
	pending map[evalKey]int
}

// pendingRef says that job answers trees[ti] on specimens[si].
type pendingRef struct{ job, ti, si int }

func (e *Evaluator) takeRows() *evalRows {
	e.mu.Lock()
	rows := e.rows
	e.rows = nil
	e.mu.Unlock()
	if rows == nil {
		rows = &evalRows{pending: make(map[evalKey]int)}
	}
	return rows
}

// putRows empties the rows, dropping what they reference, and keeps them for
// the next call.
func (e *Evaluator) putRows(rows *evalRows) {
	clear(rows.jobs)
	clear(rows.keys)
	clear(rows.pending)
	rows.jobs, rows.keys, rows.refs = rows.jobs[:0], rows.keys[:0], rows.refs[:0]
	e.mu.Lock()
	e.rows = rows
	e.mu.Unlock()
}

// evaluateTrees resolves the per-specimen result of every (tree, specimen)
// pair, serving what it can from the memo cache and simulating the rest as
// one batch over the worker pool. keys[t] is trees[t]'s canonical key;
// out[t][s] is the result for trees[t] on specimens[s]. Results are
// deterministic per (tree, specimen, cfg), so the cache only changes speed,
// never values.
//
// The simulated results of one call share one block, which the memo keeps
// alive as long as it holds any of them.
func (e *Evaluator) evaluateTrees(trees []*core.WhiskerTree, keys []string, specimens []Specimen, cfg ConfigRange, withSamples bool) ([][]*specimenResult, error) {
	n := len(specimens)
	out := make([][]*specimenResult, len(trees))
	cells := make([]*specimenResult, len(trees)*n)
	for ti := range trees {
		out[ti] = cells[ti*n : (ti+1)*n : (ti+1)*n]
	}

	cid := e.configID(cfg)
	rows := e.takeRows()
	defer e.putRows(rows)
	for ti, tree := range trees {
		for si, sp := range specimens {
			k := evalKey{tree: keys[ti], spec: sp, cfg: cid}
			if r := e.cacheGet(k, withSamples); r != nil {
				out[ti][si] = r
				continue
			}
			pi, ok := rows.pending[k]
			if !ok {
				pi = len(rows.jobs)
				rows.pending[k] = pi
				rows.jobs = append(rows.jobs, BatchJob{Tree: tree, Specimen: sp, Config: cfg, WithSamples: withSamples, Affinity: si})
				rows.keys = append(rows.keys, k)
			}
			rows.refs = append(rows.refs, pendingRef{job: pi, ti: ti, si: si})
		}
	}

	if len(rows.jobs) > 0 {
		results, err := e.runBatch(rows.jobs)
		if err != nil {
			return nil, err
		}
		if len(results) != len(rows.jobs) {
			return nil, fmt.Errorf("optimizer: batch backend returned %d results for %d jobs", len(results), len(rows.jobs))
		}
		block := make([]specimenResult, len(results))
		for pi, br := range results {
			block[pi] = specimenResult{sum: br.Sum, flows: br.Flows, counts: br.Counts, consulted: br.Consulted, samples: br.Samples}
			e.cachePut(rows.keys[pi], &block[pi])
		}
		for _, rf := range rows.refs {
			out[rf.ti][rf.si] = &block[rf.job]
		}
		e.mu.Lock()
		e.stats.SimulatedRuns += int64(len(rows.jobs))
		e.mu.Unlock()
	}
	return out, nil
}

// aggregate folds per-specimen results (in specimen order) into one
// Evaluation for a tree with n rules.
func (e *Evaluator) aggregate(n int, perSpec []*specimenResult) Evaluation {
	eval := Evaluation{
		UseCounts:     make([]int64, n),
		MemorySamples: make([][]core.Memory, n),
		perSpec:       perSpec,
	}
	var total float64
	for _, r := range perSpec {
		total += r.sum
		eval.FlowsScored += r.flows
		for idx, c := range r.counts {
			eval.UseCounts[idx] += c
			if r.samples == nil {
				continue
			}
			// Truncate to the remaining budget so a bulk merge can never
			// overshoot the per-whisker sample cap.
			if remaining := maxMemorySamplesPerWhisker - len(eval.MemorySamples[idx]); remaining > 0 {
				s := r.samples[idx]
				if len(s) > remaining {
					s = s[:remaining]
				}
				eval.MemorySamples[idx] = append(eval.MemorySamples[idx], s...)
			}
		}
	}
	if eval.FlowsScored > 0 {
		eval.Score = total / float64(eval.FlowsScored)
	} else {
		eval.Score = math.Inf(-1)
	}
	return eval
}

// Evaluate simulates the tree on every specimen (in parallel) and returns
// the aggregate score together with per-rule usage statistics, including
// the memory samples the split step needs.
func (e *Evaluator) Evaluate(tree *core.WhiskerTree, specimens []Specimen, cfg ConfigRange) (Evaluation, error) {
	return e.evaluate(tree, specimens, cfg, true)
}

// EvaluateUsage is Evaluate without memory-sample collection: scores and
// use counts only. This is the evaluation the improvement ladder runs on —
// sample collection is deferred to the (much rarer) split step.
func (e *Evaluator) EvaluateUsage(tree *core.WhiskerTree, specimens []Specimen, cfg ConfigRange) (Evaluation, error) {
	return e.evaluate(tree, specimens, cfg, false)
}

func (e *Evaluator) evaluate(tree *core.WhiskerTree, specimens []Specimen, cfg ConfigRange, withSamples bool) (Evaluation, error) {
	if len(specimens) == 0 {
		return Evaluation{}, fmt.Errorf("optimizer: no specimens to evaluate")
	}
	per, err := e.evaluateTrees([]*core.WhiskerTree{tree}, []string{tree.CanonicalKey()}, specimens, cfg, withSamples)
	if err != nil {
		return Evaluation{}, err
	}
	return e.aggregate(tree.NumWhiskers(), per[0]), nil
}

// ScoreMany evaluates several candidate trees on the same specimen set (the
// same networks and seeds, as the paper prescribes for comparing candidate
// actions) and returns one score per tree. All (tree, specimen) simulations
// share the worker pool.
func (e *Evaluator) ScoreMany(trees []*core.WhiskerTree, specimens []Specimen, cfg ConfigRange) ([]float64, error) {
	return e.scoreMany(trees, canonicalKeys(trees), specimens, cfg)
}

func (e *Evaluator) scoreMany(trees []*core.WhiskerTree, keys []string, specimens []Specimen, cfg ConfigRange) ([]float64, error) {
	if len(trees) == 0 {
		return nil, nil
	}
	if len(specimens) == 0 {
		return nil, fmt.Errorf("optimizer: no specimens to evaluate")
	}
	per, err := e.evaluateTrees(trees, keys, specimens, cfg, false)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(trees))
	for ti := range trees {
		var sum float64
		flows := 0
		for _, r := range per[ti] {
			sum += r.sum
			flows += r.flows
		}
		if flows > 0 {
			out[ti] = sum / float64(flows)
		} else {
			out[ti] = math.Inf(-1)
		}
	}
	return out, nil
}

// ScoreCandidates scores candidate trees that each differ from the
// incumbent evaluation's tree only in the action of whisker changed, on the
// same specimen set the incumbent was evaluated on. Specimens whose flows
// never consulted the changed whisker under the incumbent are not
// re-simulated: a rule that was never looked up cannot have influenced the
// specimen's trajectory, so the candidate's simulation there is identical
// to the incumbent's and the incumbent's per-specimen result is transferred
// outright. The remaining (affected) specimens are simulated as one batch.
func (e *Evaluator) ScoreCandidates(incumbent Evaluation, trees []*core.WhiskerTree, changed int, specimens []Specimen, cfg ConfigRange) ([]float64, error) {
	keys := canonicalKeys(trees)
	if !e.NoCache && len(incumbent.perSpec) == len(specimens) {
		cid := e.configID(cfg)
		for _, ck := range keys {
			for si, sp := range specimens {
				inc := incumbent.perSpec[si]
				if changed < 0 || changed >= len(inc.consulted) || inc.consulted[changed] {
					continue
				}
				e.cacheSeed(evalKey{tree: ck, spec: sp, cfg: cid}, inc)
			}
		}
	}
	return e.scoreMany(trees, keys, specimens, cfg)
}
