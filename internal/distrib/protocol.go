// Package distrib is the optimizer's distributed evaluation plane: a
// coordinator that shards specimen-simulation batches across persistent
// worker processes, and the worker loop those processes run. The wire
// protocol is length-prefixed binary frames (codec.go) — over stdio for
// locally spawned workers, but the transport is any io.Reader/io.Writer
// pair, so pointing a worker slot at a TCP connection is a dial, not a
// redesign.
//
// Determinism is the contract: every job (tree, specimen, design config) is
// self-contained and every worker executes it through the same
// optimizer.RunBatchLocal code path an in-process run uses. Every float64
// crosses as its raw IEEE-754 bits. A batch's candidate trees are almost
// all one-rule variants of one incumbent, so the first tree of each
// structure crosses whole, in the WhiskerTree JSON codec (whose whisker
// indexing round-trips exactly), and the others as the rules that differ
// from it; the worker rebuilds those over the base's node array, so its
// per-rule usage arrays line up with the coordinator's index for index. The
// coordinator merges results in job order, so the trained tree is
// byte-identical to an in-process run at the same seed — at any worker
// count, and across worker crashes and respawns.
package distrib

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/stats"
)

// ProtocolVersion is bumped on any incompatible change to the frame or
// message encodings. Coordinator and worker exchange it in the handshake
// and refuse to proceed on a mismatch — a silent skew between binaries
// must not produce silently different trees. Version 1 framed JSON; a v1
// peer is recognised by its first byte and refused by name (parseFrame).
const ProtocolVersion = 2

// MaxFrameBytes bounds a single frame. Batches carry at most one tree table
// plus per-job specimens and per-rule usage arrays; 256 MiB is far beyond
// any legitimate batch and exists to turn a corrupted length prefix into an
// error instead of an allocation bomb.
const MaxFrameBytes = 256 << 20

// Frame types.
const (
	// TypeHello is the worker's first frame: its protocol version.
	TypeHello = "hello"
	// TypeEval carries a batch of jobs coordinator → worker.
	TypeEval = "eval"
	// TypeResult carries a batch's results worker → coordinator.
	TypeResult = "result"
	// TypeShutdown asks the worker to exit cleanly.
	TypeShutdown = "shutdown"
)

// Frame is the tagged union every message travels in. Exactly the field
// matching Type is populated.
type Frame struct {
	Type   string
	Hello  *Hello
	Eval   *EvalRequest
	Result *EvalResponse
}

// Hello is the worker's handshake: sent once, immediately after start.
type Hello struct {
	Version int
	// Parallel is the worker's inner simulation pool size (informational).
	Parallel int
	PID      int
}

// EvalRequest is one batch of specimen simulations. Candidate trees repeat
// across a batch's jobs, so they are carried once in a table and referenced
// by index: index i < len(Trees) is Trees[i], any other is
// Variants[i-len(Trees)].
type EvalRequest struct {
	// ID matches a response to its request; the coordinator increments it
	// per dispatched batch (re-dispatches after a crash get a fresh ID).
	ID uint64
	// Objective is the evaluator configuration the scores depend on.
	Objective stats.Objective
	// Trees holds the first tree of each distinct structure, whole, in the
	// WhiskerTree JSON codec — the same encoding SaveFile and the training
	// checkpoints use.
	Trees []json.RawMessage
	// Variants holds every other tree as its difference from one of Trees.
	Variants []Variant
	Jobs     []WireJob
}

// Variant is a tree that shares the node array of Trees[Base] and differs
// from it in the listed rules only (core.WhiskerTree.DiffFrom / Variant).
// The three slices run in parallel; a Clone with no change has none.
type Variant struct {
	Base    int
	Rules   []int
	Actions []core.Action
	Epochs  []int
}

// WireJob is one (tree, specimen) simulation within a batch.
type WireJob struct {
	// Tree indexes the request's tree table (Trees, then Variants).
	Tree        int
	Specimen    optimizer.Specimen
	Config      optimizer.ConfigRange
	WithSamples bool
}

// EvalResponse carries a batch's per-job results, in job order.
type EvalResponse struct {
	ID      uint64
	Results []WireResult
	// Error reports a batch that could not be executed (bad tree bytes,
	// invalid config). The coordinator treats it as fatal for the batch —
	// a malformed request cannot be fixed by retrying.
	Error string
}

// WireResult mirrors optimizer.BatchResult.
type WireResult struct {
	Sum       float64
	Flows     int
	Counts    []int64
	Consulted []bool
	Samples   [][]core.Memory
}

// Conn frames messages over a byte stream: a 4-byte big-endian length
// prefix followed by the frame's body (codec.go). Frames are encoded into
// and parsed out of buffers the Conn keeps from frame to frame. Reads and
// writes are each serialized by their own mutex, so one goroutine may read
// while another writes.
type Conn struct {
	rmu  sync.Mutex
	r    *bufio.Reader
	hdr  [prefixBytes]byte // read-side scratch; a local would escape through io.ReadFull
	rbuf []byte
	wmu  sync.Mutex
	w    io.Writer
	wbuf []byte
}

// NewConn wraps a read/write pair (a spawned process's stdout/stdin, a
// net.Conn, an in-memory pipe) in the frame codec.
func NewConn(r io.Reader, w io.Writer) *Conn {
	return &Conn{r: bufio.NewReaderSize(r, readChunk), w: w}
}

// WriteFrame encodes and sends one frame, prefix and body in one Write.
func (c *Conn) WriteFrame(f *Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := appendFrame(append(c.wbuf[:0], 0, 0, 0, 0), f) // prefixBytes of room, filled below
	c.wbuf = buf
	if err != nil {
		return err
	}
	n := len(buf) - prefixBytes
	if n > MaxFrameBytes {
		return fmt.Errorf("distrib: %s frame of %d bytes exceeds the %d-byte limit", f.Type, n, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	_, err = c.w.Write(buf)
	return err
}

// ReadFrame reads and decodes the next frame. It returns io.EOF only on a
// clean boundary (no partial frame consumed); a stream that dies mid-frame
// surfaces as io.ErrUnexpectedEOF.
func (c *Conn) ReadFrame() (*Frame, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("distrib: stream died mid-header: %w", err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.hdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("distrib: frame length %d exceeds the %d-byte limit (corrupt stream?)", n, MaxFrameBytes)
	}
	body, err := c.readBody(int(n))
	if err != nil {
		return nil, fmt.Errorf("distrib: stream died mid-frame: %w", err)
	}
	return parseFrame(body)
}

const (
	// prefixBytes is the size of a frame's big-endian length prefix.
	prefixBytes = 4
	// readChunk is the first step by which the read buffer grows toward a
	// frame's announced length (and the bufio window in front of it).
	readChunk = 1 << 16
)

// readBody reads an n-byte frame body into the Conn's read buffer. The
// length prefix is a claim, not a fact: the buffer grows only as bytes
// arrive — to n at once when n is small, else by doubling from readChunk —
// and is kept only once the whole body is in, so a lying prefix buys at
// most readChunk plus twice what its sender really sent, and the Conn never
// retains more capacity than the largest frame it actually received.
func (c *Conn) readBody(n int) ([]byte, error) {
	buf := c.rbuf[:cap(c.rbuf)]
	for have := 0; have < n; {
		if have == len(buf) {
			grown := make([]byte, min(n, max(readChunk, 2*len(buf))))
			copy(grown, buf[:have])
			buf = grown
		}
		m, err := io.ReadFull(c.r, buf[have:min(n, len(buf))])
		have += m
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the prefix promised more
		}
		if err != nil {
			return nil, err
		}
	}
	c.rbuf = buf
	return buf[:n], nil
}

// encodeJobs converts a coordinator-side job slice to the wire form (ID and
// Objective are the caller's to fill). Trees are deduplicated by identity;
// the first tree of each node array goes whole into Trees and every other
// as a Variant of it — an improvement step's candidates are WithAction
// copies of one incumbent, so a batch usually carries one whole tree. Job
// order is preserved: the response's results line up index for index.
func encodeJobs(jobs []optimizer.BatchJob) (*EvalRequest, error) {
	req := &EvalRequest{Jobs: make([]WireJob, len(jobs))}
	var bases []*core.WhiskerTree // bases[k] is the tree behind req.Trees[k]
	// slots maps a tree to its table entry: k >= 0 is req.Trees[k], ^k is
	// req.Variants[k], whose final index waits for len(req.Trees).
	slots := make(map[*core.WhiskerTree]int, 16)
	for i, j := range jobs {
		slot, seen := slots[j.Tree]
		if !seen {
			var err error
			if slot, err = req.addTree(j.Tree, &bases); err != nil {
				return nil, err
			}
			slots[j.Tree] = slot
		}
		req.Jobs[i] = WireJob{Tree: slot, Specimen: j.Specimen, Config: j.Config, WithSamples: j.WithSamples}
	}
	for i := range req.Jobs {
		if slot := req.Jobs[i].Tree; slot < 0 {
			req.Jobs[i].Tree = len(req.Trees) + ^slot
		}
	}
	return req, nil
}

// addTree files t as a variant of the base whose node array it shares, or
// as a new base, and returns its slot in encodeJobs' numbering.
func (req *EvalRequest) addTree(t *core.WhiskerTree, bases *[]*core.WhiskerTree) (int, error) {
	for k, base := range *bases {
		rules, shared := t.DiffFrom(base, nil)
		if !shared {
			continue
		}
		v := Variant{Base: k, Rules: rules}
		if len(rules) > 0 {
			v.Actions = make([]core.Action, len(rules))
			v.Epochs = make([]int, len(rules))
		}
		for n, r := range rules {
			w, err := t.Whisker(r)
			if err != nil {
				return 0, err
			}
			v.Actions[n], v.Epochs[n] = w.Action, w.Epoch
		}
		req.Variants = append(req.Variants, v)
		return ^(len(req.Variants) - 1), nil
	}
	data, err := json.Marshal(t)
	if err != nil {
		return 0, fmt.Errorf("distrib: encoding tree: %w", err)
	}
	req.Trees = append(req.Trees, data)
	*bases = append(*bases, t)
	return len(req.Trees) - 1, nil
}

// decodeJobs is the worker-side inverse of encodeJobs. Every variant is
// rebuilt over its base's node array, so the worker's candidates share
// structure exactly as the coordinator's do.
func decodeJobs(req *EvalRequest) ([]optimizer.BatchJob, error) {
	trees := make([]*core.WhiskerTree, len(req.Trees), len(req.Trees)+len(req.Variants))
	for i, raw := range req.Trees {
		t := &core.WhiskerTree{}
		if err := json.Unmarshal(raw, t); err != nil {
			return nil, fmt.Errorf("distrib: decoding tree %d: %w", i, err)
		}
		trees[i] = t
	}
	for i, v := range req.Variants {
		if v.Base < 0 || v.Base >= len(req.Trees) {
			return nil, fmt.Errorf("distrib: variant %d is based on tree %d of %d", i, v.Base, len(req.Trees))
		}
		t, err := trees[v.Base].Variant(v.Rules, v.Actions, v.Epochs)
		if err != nil {
			return nil, fmt.Errorf("distrib: rebuilding variant %d: %w", i, err)
		}
		trees = append(trees, t)
	}
	jobs := make([]optimizer.BatchJob, len(req.Jobs))
	for i, wj := range req.Jobs {
		if wj.Tree < 0 || wj.Tree >= len(trees) {
			return nil, fmt.Errorf("distrib: job %d references tree %d of %d", i, wj.Tree, len(trees))
		}
		jobs[i] = optimizer.BatchJob{Tree: trees[wj.Tree], Specimen: wj.Specimen, Config: wj.Config, WithSamples: wj.WithSamples}
	}
	return jobs, nil
}
