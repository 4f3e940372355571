package distrib

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/stats"
)

// --- fixtures ------------------------------------------------------------------

// splitTree returns a tree of at least minRules rules (1 + 7k: every Split
// turns one rule into eight) with distinct epochs, so a codec that dropped
// or reordered them would show.
func splitTree(t testing.TB, minRules int) *core.WhiskerTree {
	t.Helper()
	tree := core.DefaultWhiskerTree()
	for i := 0; tree.NumWhiskers() < minRules; i += 3 {
		w, err := tree.Whisker(i % tree.NumWhiskers())
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Split(w.Index, w.Domain.Midpoint()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tree.NumWhiskers(); i++ {
		if err := tree.SetEpoch(i, i%4); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

// candidates returns n WithAction copies of tree, all of rule, as an
// improvement step builds them.
func candidates(t testing.TB, tree *core.WhiskerTree, rule, n int) []*core.WhiskerTree {
	t.Helper()
	out := make([]*core.WhiskerTree, n)
	for i := range out {
		c, err := tree.WithAction(rule, core.Action{WindowMultiple: 1 - 0.01*float64(i), WindowIncrement: float64(i), IntersendMs: 0.5 + float64(i)/3})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c
	}
	return out
}

// specimenJobs crosses trees with `specimens` specimens, tree-major like the
// evaluator's batches.
func specimenJobs(trees []*core.WhiskerTree, specimens int) []optimizer.BatchJob {
	cfg := goldenTrainConfig()
	var jobs []optimizer.BatchJob
	for _, tree := range trees {
		for s := 0; s < specimens; s++ {
			sp := optimizer.Specimen{Senders: 1 + s%2, LinkRateBps: 1e7, RTTMs: 100 + float64(s)/7, Seed: int64(1000 + s)}
			jobs = append(jobs, optimizer.BatchJob{Tree: tree, Specimen: sp, Config: cfg, Affinity: s})
		}
	}
	return jobs
}

// ruleResult is a worker's answer for a tree of n rules; zero-length slices
// are nil, the form the parser produces.
func ruleResult(n int, samples [][]core.Memory) WireResult {
	r := WireResult{Sum: -1.5 * float64(n+1), Flows: n % 5, Samples: samples}
	if n > 0 {
		r.Counts = make([]int64, n)
		r.Consulted = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		r.Counts[i] = int64(i*i*977) - 3
		r.Consulted[i] = i%3 == 0 || i == n-1
	}
	return r
}

type namedFrame struct {
	name  string
	frame *Frame
}

// wireFrames is every frame shape the protocol has; TestFrameRoundTrip trips
// them, TestParseFrameRejects truncates them, FuzzParseFrame starts from them.
func wireFrames() []namedFrame {
	obj := stats.DefaultObjective(0.5)
	tree := json.RawMessage(`{"leaf":true,"whisker":{}}`)
	cfgA, cfgB := goldenTrainConfig(), quickConfig()
	sp := optimizer.Specimen{Senders: 2, LinkRateBps: 1e7, RTTMs: 123.456789, Seed: -42}
	act := func(k float64) core.Action {
		return core.Action{WindowMultiple: k / 3, WindowIncrement: -k, IntersendMs: 0.01 * k}
	}
	frames := []namedFrame{
		{"hello", &Frame{Type: TypeHello, Hello: &Hello{Version: ProtocolVersion, Parallel: 3, PID: 424242}}},
		{"hello/negative", &Frame{Type: TypeHello, Hello: &Hello{Version: -1, Parallel: -2, PID: -3}}},
		{"shutdown", &Frame{Type: TypeShutdown}},
		{"eval/empty", &Frame{Type: TypeEval, Eval: &EvalRequest{Objective: obj}}},
		{"eval/one-tree", &Frame{Type: TypeEval, Eval: &EvalRequest{
			ID: 7, Objective: obj, Trees: []json.RawMessage{tree},
			Jobs: []WireJob{{Tree: 0, Specimen: sp, Config: cfgA}},
		}}},
		{"eval/trees-variants-configs", &Frame{Type: TypeEval, Eval: &EvalRequest{
			ID: 1 << 40, Objective: stats.MinPotentialDelayObjective(),
			Trees: []json.RawMessage{tree, json.RawMessage(`{"leaf":false}`), tree},
			Variants: []Variant{
				{Base: 0},
				{Base: 2, Rules: []int{5}, Actions: []core.Action{act(1)}, Epochs: []int{3}},
				{Base: 1, Rules: []int{0, 9, 154}, Actions: []core.Action{act(2), act(3), act(4)}, Epochs: []int{0, -1, 1 << 33}},
			},
			Jobs: []WireJob{
				{Tree: 0, Specimen: sp, Config: cfgA},
				{Tree: 3, Specimen: sp, Config: cfgA, WithSamples: true},
				{Tree: 5, Specimen: optimizer.Specimen{Senders: 16, LinkRateBps: 2e7, RTTMs: 200, Seed: 1<<62 + 1}, Config: cfgB},
				{Tree: 4, Specimen: sp, Config: cfgB, WithSamples: true},
				{Tree: 1, Specimen: sp, Config: cfgA},
			},
		}}},
		{"result/error", &Frame{Type: TypeResult, Result: &EvalResponse{ID: 9, Error: "distrib: decoding tree 0: unexpected end of JSON input"}}},
		{"result/samples", &Frame{Type: TypeResult, Result: &EvalResponse{ID: 10, Results: []WireResult{
			ruleResult(3, nil),
			ruleResult(3, make([][]core.Memory, 3)), // collected, and every row empty
			ruleResult(3, [][]core.Memory{nil, {{AckEWMA: 1, SendEWMA: 2, RTTRatio: 3}}, {{AckEWMA: 0.1}, {RTTRatio: 1e-300}}}),
		}}}},
	}
	for _, n := range []int{0, 7, 8, 9, 150} { // the Consulted bitmap's byte edges
		frames = append(frames, namedFrame{fmt.Sprintf("result/rules=%d", n),
			&Frame{Type: TypeResult, Result: &EvalResponse{ID: uint64(n), Results: []WireResult{ruleResult(n, nil), ruleResult(n, nil)}}}})
	}
	return frames
}

func dump(f *Frame) string {
	return fmt.Sprintf("{%s hello=%+v eval=%+v result=%+v}", f.Type, f.Hello, f.Eval, f.Result)
}

func frameBody(t testing.TB, f *Frame) []byte {
	t.Helper()
	body, err := appendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// --- variants ------------------------------------------------------------------

// sharesNodes reports whether two trees stand on one node array.
func sharesNodes(a, b *core.WhiskerTree) bool {
	_, shared := a.DiffFrom(b, nil)
	return shared
}

func TestVariantsDecodeToTheSameTrees(t *testing.T) {
	small, deep := splitTree(t, 15), splitTree(t, 150)
	if small.NumWhiskers() != 15 || deep.NumWhiskers() < 150 {
		t.Fatalf("fixture trees have %d and %d rules", small.NumWhiskers(), deep.NumWhiskers())
	}
	aged := small.Clone() // differs from its base in epochs only
	aged.SetAllEpochs(9)
	resplit := small.Clone() // a Split builds a new node array: not a variant of small
	if err := resplit.Split(2, core.Memory{AckEWMA: 1, SendEWMA: 1, RTTRatio: 1}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		trees      []*core.WhiskerTree
		structures int
	}{
		{"15-rule step", append([]*core.WhiskerTree{small}, candidates(t, small, 4, 16)...), 1},
		{"deep step, incumbent last", append(candidates(t, deep, 77, 16), deep), 1},
		{"two structures interleaved", []*core.WhiskerTree{
			candidates(t, small, 0, 1)[0], deep, small, candidates(t, deep, 149, 1)[0], candidates(t, small, 14, 1)[0],
		}, 2},
		{"unchanged clone and epochs", []*core.WhiskerTree{small, small.Clone(), aged}, 1},
		{"after split", []*core.WhiskerTree{small, resplit, candidates(t, resplit, 3, 1)[0]}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sent := specimenJobs(tc.trees, 4)
			req, err := encodeJobs(sent)
			if err != nil {
				t.Fatal(err)
			}
			if len(req.Trees) != tc.structures || len(req.Trees)+len(req.Variants) != len(tc.trees) {
				t.Fatalf("%d trees of %d structures crossed as %d whole + %d variants", len(tc.trees), tc.structures, len(req.Trees), len(req.Variants))
			}
			var buf bytes.Buffer
			conn := NewConn(&buf, &buf)
			if err := conn.WriteFrame(&Frame{Type: TypeEval, Eval: req}); err != nil {
				t.Fatal(err)
			}
			f, err := conn.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeJobs(f.Eval)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(sent) {
				t.Fatalf("%d jobs decoded from %d", len(got), len(sent))
			}
			for i := range sent {
				want, have := sent[i].Tree, got[i].Tree
				if have.NumWhiskers() != want.NumWhiskers() || have.CanonicalKey() != want.CanonicalKey() {
					t.Fatalf("job %d: tree changed on the wire (%d rules for %d)", i, have.NumWhiskers(), want.NumWhiskers())
				}
				hw := have.Whiskers()
				for k, w := range want.Whiskers() { // order, domain, action and epoch of every rule
					if hw[k] != w {
						t.Fatalf("job %d: rule %d is %+v, want %+v", i, k, hw[k], w)
					}
				}
				if got[i].Specimen != sent[i].Specimen || got[i].Config != sent[i].Config {
					t.Fatalf("job %d: specimen or config changed on the wire", i)
				}
				// The worker's trees share structure exactly where the
				// coordinator's do, and one worker tree stands for one
				// coordinator tree.
				for k := 0; k < i; k++ {
					if sharesNodes(got[i].Tree, got[k].Tree) != sharesNodes(sent[i].Tree, sent[k].Tree) {
						t.Fatalf("jobs %d and %d: node-array sharing differs across the wire", k, i)
					}
					if (got[i].Tree == got[k].Tree) != (sent[i].Tree == sent[k].Tree) {
						t.Fatalf("jobs %d and %d: tree identity differs across the wire", k, i)
					}
				}
			}
		})
	}
}

// --- rejection -----------------------------------------------------------------

func TestParseFrameRejects(t *testing.T) {
	t.Run("truncation", func(t *testing.T) {
		// A strict prefix of a valid frame is never a valid frame.
		for _, tc := range wireFrames() {
			body := frameBody(t, tc.frame)
			for cut := 0; cut < len(body); cut++ {
				if f, err := parseFrame(body[:cut]); err == nil {
					t.Fatalf("%s cut at byte %d of %d parsed as %s", tc.name, cut, len(body), dump(f))
				}
			}
			if _, err := parseFrame(append(body, 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
				t.Fatalf("%s with a trailing byte: %v", tc.name, err)
			}
		}
	})

	evalHead := func(trees, variants, jobs uint64) []byte {
		b := binary.AppendUvarint([]byte{tagEval}, 1)
		for i := 0; i < 3; i++ {
			b = appendF64(b, 1)
		}
		b = binary.AppendUvarint(b, trees)
		if trees == 0 {
			b = binary.AppendUvarint(b, variants)
			if variants == 0 {
				b = binary.AppendUvarint(b, jobs)
			}
		}
		return b
	}
	job := func(flags byte) []byte {
		b := append([]byte{flags}, 0) // tree 0
		b = appendInt(b, 1)
		b = appendF64(appendF64(b, 1e7), 100)
		return appendInt(b, 5)
	}
	// One result (id 1, no error) up to its flows; its slices follow.
	resultHead := func(rest ...byte) []byte {
		return append(appendInt(appendF64([]byte{tagResult, 1, 0, 1}, 2), 3), rest...)
	}
	pad := make([]byte, 64)
	malformed := []struct {
		name, want string
		body       []byte
	}{
		{"empty body", "truncated", nil},
		{"unknown tag", "unknown frame tag 0x09", []byte{9}},
		{"v1 JSON", "JSON protocol (v1)", []byte(`{"type":"shutdown"}`)},
		{"tree count", "do not fit", append(evalHead(1000, 0, 0), pad...)},
		{"tree length", "do not fit", append(append(evalHead(1, 0, 0), 200), pad...)},
		{"variant count", "do not fit", append(evalHead(0, 40, 0), pad...)},
		{"changed-rule count", "do not fit", append(append(evalHead(0, 1, 0), 0, 3), pad...)},
		{"job count", "do not fit", append(evalHead(0, 0, 4), pad...)},
		{"huge count", "do not fit", append(evalHead(0, 0, 1<<63), pad...)},
		{"huge tree index", "tree index", append(binary.AppendUvarint(append(evalHead(0, 0, 1), 0), 1<<40), pad...)},
		{"same-config bit on job 0", "job 0 claims the config", append(evalHead(0, 0, 1), job(flagSameConfig)...)},
		{"unknown job flags", "unknown flags", append(evalHead(0, 0, 1), job(0x80)...)},
		{"result count", "do not fit", append([]byte{tagResult, 1, 0, 9}, pad...)},
		{"error length", "do not fit", []byte{tagResult, 1, 50, 'x'}},
		{"counts count", "do not fit", resultHead(100, 0, 0)},
		{"consulted bits", "consulted bits do not fit", resultHead(0, 17, 0xff, 0xff)},
		{"sample rows", "do not fit", resultHead(0, 0, 9)},
		{"sample points", "do not fit", resultHead(0, 0, 1, 2, 0, 0, 0)},
	}
	for _, tc := range malformed {
		t.Run(tc.name, func(t *testing.T) {
			if f, err := parseFrame(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want an error naming %q, got %v (frame %v)", tc.want, err, f)
			}
		})
	}

	// Indices the frame cannot judge by itself are decodeJobs' to refuse —
	// as a batch error from a healthy worker, not a torn-down stream.
	leaf, err := json.Marshal(core.DefaultWhiskerTree())
	if err != nil {
		t.Fatal(err)
	}
	one := []core.Action{core.DefaultAction()}
	ranges := []struct {
		name, want string
		req        EvalRequest
	}{
		{"variant base past the trees", "based on tree 1 of 1", EvalRequest{Variants: []Variant{{Base: 1}}}},
		{"variant rule past the base's rules", "whisker index 1 out of range", EvalRequest{Variants: []Variant{{Base: 0, Rules: []int{1}, Actions: one, Epochs: []int{0}}}}},
		{"job tree past trees and variants", "references tree 2 of 2", EvalRequest{Variants: []Variant{{Base: 0}}, Jobs: []WireJob{{Tree: 2}}}},
	}
	for _, tc := range ranges {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.Trees = []json.RawMessage{leaf}
			f, err := parseFrame(frameBody(t, &Frame{Type: TypeEval, Eval: &tc.req}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeJobs(f.Eval); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want an error naming %q, got %v", tc.want, err)
			}
			if resp := serveEval(f.Eval, ServeOptions{}); !strings.Contains(resp.Error, tc.want) {
				t.Fatalf("worker answered %+v", resp)
			}
		})
	}

	// The encoder refuses what it cannot represent.
	lopsided := &Frame{Type: TypeEval, Eval: &EvalRequest{Variants: []Variant{{Rules: []int{1, 2}, Actions: one, Epochs: []int{0, 0}}}}}
	for _, f := range []*Frame{lopsided, {Type: TypeEval}, {Type: TypeResult}, {Type: TypeHello}, {Type: "gossip"}} {
		if err := NewConn(strings.NewReader(""), io.Discard).WriteFrame(f); err == nil {
			t.Fatalf("WriteFrame accepted %s", dump(f))
		}
	}
}

// TestFrameLyingLengthAllocatesWhatArrived: a length prefix is a claim. One
// just under MaxFrameBytes followed by ten bytes and EOF must cost what ten
// bytes cost, not a quarter of a gigabyte held until the read fails.
func TestFrameLyingLengthAllocatesWhatArrived(t *testing.T) {
	stream := append([]byte{0x0f, 0xff, 0xff, 0xf0}, "ten bytes."...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewConn(bytes.NewReader(stream), io.Discard).ReadFrame()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "mid-frame") || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want the mid-frame error, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 10-byte stream claiming %d bytes made ReadFrame allocate %d", 0x0ffffff0, grew)
	}
}

// TestReadBufferFollowsWhatArrived: a frame larger than the buffer's first
// step arrives whole, and the Conn keeps exactly what it took.
func TestReadBufferFollowsWhatArrived(t *testing.T) {
	big := &Frame{Type: TypeResult, Result: &EvalResponse{ID: 1, Results: []WireResult{ruleResult(3*readChunk, nil)}}}
	small := &Frame{Type: TypeShutdown}
	var buf bytes.Buffer
	conn := NewConn(&buf, &buf)
	for _, f := range []*Frame{small, big, small} {
		if err := conn.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	largest := len(frameBody(t, big))
	for i, want := range []*Frame{small, big, small} {
		got, err := conn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || (want.Result != nil && len(got.Result.Results[0].Counts) != 3*readChunk) {
			t.Fatalf("frame %d arrived as %s", i, got.Type)
		}
		if i > 0 && cap(conn.rbuf) != largest {
			t.Fatalf("after frame %d the Conn holds %d bytes; the largest frame received had %d", i, cap(conn.rbuf), largest)
		}
	}
}

// --- steady-state allocation ---------------------------------------------------

// cycle replays a byte string forever.
type cycle struct {
	data []byte
	off  int
}

func (c *cycle) Read(p []byte) (int, error) {
	if c.off == len(c.data) {
		c.off = 0
	}
	n := copy(p, c.data[c.off:])
	c.off += n
	return n, nil
}

func TestWireSteadyStateAllocs(t *testing.T) {
	tree := splitTree(t, 15)
	req, err := encodeJobs(specimenJobs(candidates(t, tree, 3, 15), 4))
	if err != nil {
		t.Fatal(err)
	}
	resp := &EvalResponse{ID: 1}
	for range req.Jobs {
		resp.Results = append(resp.Results, ruleResult(tree.NumWhiskers(), nil))
	}
	jobs := len(req.Jobs)
	if jobs != 60 {
		t.Fatalf("fixture batch has %d jobs", jobs)
	}
	result := &Frame{Type: TypeResult, Result: resp}
	for _, f := range []*Frame{{Type: TypeEval, Eval: req}, result} {
		conn := NewConn(strings.NewReader(""), io.Discard)
		write := func() {
			if err := conn.WriteFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		write() // warm the buffer
		if n := testing.AllocsPerRun(20, write); n != 0 {
			t.Errorf("WriteFrame of a %d-job %s frame allocates %v times on a warm Conn", jobs, f.Type, n)
		}
	}
	// Reading the result back costs the frame, the response, its result
	// slice and one block each of Counts and Consulted rows, however many
	// jobs the frame carries.
	var wire bytes.Buffer
	if err := NewConn(strings.NewReader(""), &wire).WriteFrame(result); err != nil {
		t.Fatal(err)
	}
	conn := NewConn(&cycle{data: wire.Bytes()}, io.Discard)
	read := func() {
		if _, err := conn.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if n := testing.AllocsPerRun(20, read); n > 5 {
		t.Errorf("ReadFrame of a %d-job result allocates %v times, want at most 5 whatever the job count", jobs, n)
	}
}

// --- fuzz ----------------------------------------------------------------------

// frameElements counts the slice elements a frame parsed by r holds — what
// its memory is proportional to — by capacity, not length: each slice of its
// own at its capacity, and the rows carved from the frame's blocks (variant
// rules, result counts and consulted bits) as the blocks' whole size.
func frameElements(f *Frame, r *frameReader) int {
	n := r.blocks
	if f.Eval != nil {
		n += cap(f.Eval.Trees) + cap(f.Eval.Variants) + cap(f.Eval.Jobs)
		for _, raw := range f.Eval.Trees {
			n += cap(raw)
		}
	}
	if f.Result != nil {
		n += len(f.Result.Error) + cap(f.Result.Results)
		for _, res := range f.Result.Results {
			n += cap(res.Samples)
			for _, row := range res.Samples {
				n += cap(row)
			}
		}
	}
	return n
}

// blockRows counts the elements of the rows a parsed frame carves from its
// blocks.
func blockRows(f *Frame) int {
	n := 0
	if f.Eval != nil {
		for _, v := range f.Eval.Variants {
			n += len(v.Rules) + len(v.Actions) + len(v.Epochs)
		}
	}
	if f.Result != nil {
		for _, res := range f.Result.Results {
			n += len(res.Counts) + len(res.Consulted)
		}
	}
	return n
}

// FuzzParseFrame: arbitrary bytes never panic the parser or make it hold
// more than a constant multiple of what arrived, its row blocks are exactly
// as large as the rows carved from them, and whatever does parse is
// a fixed point — it re-encodes, and the re-encoding parses back to a frame
// with the very same encoding. (The comparison is by encoding, which is
// canonical and bit-exact, because a frame holding a NaN is not DeepEqual
// to itself; TestFrameRoundTrip holds the DeepEqual end.)
func FuzzParseFrame(f *testing.F) {
	for _, tc := range wireFrames() {
		f.Add(frameBody(f, tc.frame))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := frameReader{b: data}
		frame, err := r.frame()
		if err != nil {
			return
		}
		if n := frameElements(frame, &r); n > 8*len(data) {
			t.Fatalf("%d input bytes parsed into %d slice elements", len(data), n)
		}
		if rows := blockRows(frame); rows != r.blocks {
			t.Fatalf("the frame's blocks hold %d elements for rows of %d", r.blocks, rows)
		}
		again, err := appendFrame(nil, frame)
		if err != nil {
			t.Fatalf("a parsed frame does not re-encode: %v", err)
		}
		reparsed, err := parseFrame(again)
		if err != nil {
			t.Fatalf("a re-encoded frame does not parse: %v", err)
		}
		if third := frameBody(t, reparsed); !bytes.Equal(again, third) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", again, third)
		}
	})
}
