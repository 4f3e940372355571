package distrib

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The frame body (what follows the 4-byte big-endian length prefix) is a tag
// byte and a payload. In the grammar below u is an unsigned varint (counts,
// ids, indices and byte lengths), v a zigzag varint (every int and int64
// field, so any value survives), f the raw IEEE-754 bits of a float64, little
// endian — no decimal text, so NaN, ±Inf and -0 cross like any other value.
//
//	hello    := version:v parallel:v pid:v
//	eval     := id:u alpha:f beta:f delta:f
//	            nTrees:u    { len:u json[len] }
//	            nVariants:u { base:u nRules:u { rule:u action:3f epoch:v } }
//	            nJobs:u     { flags:byte tree:u senders:v rate:f rtt:f seed:v [config] }
//	config   := minSenders:v maxSenders:v rateLo:f rateHi:f rttLo:f rttHi:f onMode:v
//	            meanOnSeconds:f meanOnBytes:f meanOffSecs:f queue:v duration:v specimens:v
//	result   := id:u errLen:u err[errLen]
//	            nResults:u { sum:f flows:v nCounts:u { count:v }
//	                         nConsulted:u bitmap[(nConsulted+7)/8]
//	                         nRows:u { nPoints:u { 3f } } }
//	shutdown := (empty)
//
// A job's config is present unless flagSameConfig is set, which means "the
// previous job's". Consulted is a bitmap, rule i in bit i%8 of byte i/8. A
// count of zero decodes as a nil slice, so Samples is nil exactly when the
// job collected none. Every count is checked against the bytes left in the
// frame before anything is sized from it.
//
// A frame's variant rows, and its results' Counts and Consulted rows, are
// decoded into one block of each kind for the whole frame, sized exactly by
// a walk over the frame ahead of the decode; each row is capped at its
// length.
const (
	tagHello    = 1
	tagEval     = 2
	tagResult   = 3
	tagShutdown = 4

	flagWithSamples = 1 << 0
	flagSameConfig  = 1 << 1
)

// Smallest encodings, the divisors of the count checks.
const (
	minTreeBytes    = 1
	minVariantBytes = 2
	ruleChangeBytes = 1 + 24 + 1
	minJobBytes     = 1 + 1 + 1 + 8 + 8 + 1
	minResultBytes  = 8 + 1 + 1 + 1 + 1
	pointBytes      = 24
)

// maxIndex bounds tree, base and rule indices so they convert to int on any
// platform; whether one is in range for its table is decodeJobs' check.
const maxIndex = math.MaxInt32

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendCount(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

// appendFrame appends f's body to b, which WriteFrame hands in with its
// capacity kept from the previous frame: once warm, encoding allocates
// nothing.
//
//repo:hotpath per-batch frame encoder, append-only into the Conn's reused buffer
func appendFrame(b []byte, f *Frame) ([]byte, error) {
	switch {
	case f.Type == TypeHello && f.Hello != nil:
		//lint:ignore hotalloc appends into the Conn's reused write buffer; amortized-free once warm
		b = append(b, tagHello)
		b = appendInt(b, f.Hello.Version)
		b = appendInt(b, f.Hello.Parallel)
		return appendInt(b, f.Hello.PID), nil
	case f.Type == TypeEval && f.Eval != nil:
		//lint:ignore hotalloc appends into the Conn's reused write buffer; amortized-free once warm
		return appendEval(append(b, tagEval), f.Eval)
	case f.Type == TypeResult && f.Result != nil:
		//lint:ignore hotalloc appends into the Conn's reused write buffer; amortized-free once warm
		return appendResult(append(b, tagResult), f.Result), nil
	case f.Type == TypeShutdown:
		//lint:ignore hotalloc appends into the Conn's reused write buffer; amortized-free once warm
		return append(b, tagShutdown), nil
	}
	//lint:ignore hotalloc error path; a frame without its payload is a caller bug
	return b, fmt.Errorf("distrib: cannot encode frame of type %q (unknown type or missing payload)", f.Type)
}

//repo:hotpath per-batch request encoder
func appendEval(b []byte, req *EvalRequest) ([]byte, error) {
	b = binary.AppendUvarint(b, req.ID)
	b = appendF64(b, req.Objective.Alpha)
	b = appendF64(b, req.Objective.Beta)
	b = appendF64(b, req.Objective.Delta)
	b = appendCount(b, len(req.Trees))
	for _, raw := range req.Trees {
		b = appendCount(b, len(raw))
		//lint:ignore hotalloc appends into the Conn's reused write buffer; amortized-free once warm
		b = append(b, raw...)
	}
	b = appendCount(b, len(req.Variants))
	for i := range req.Variants {
		v := &req.Variants[i]
		if len(v.Actions) != len(v.Rules) || len(v.Epochs) != len(v.Rules) {
			//lint:ignore hotalloc error path; encodeJobs never builds such a variant
			return b, fmt.Errorf("distrib: variant %d has %d rules, %d actions, %d epochs", i, len(v.Rules), len(v.Actions), len(v.Epochs))
		}
		b = appendCount(b, v.Base)
		b = appendCount(b, len(v.Rules))
		for k, rule := range v.Rules {
			b = appendCount(b, rule)
			b = appendF64(b, v.Actions[k].WindowMultiple)
			b = appendF64(b, v.Actions[k].WindowIncrement)
			b = appendF64(b, v.Actions[k].IntersendMs)
			b = appendInt(b, v.Epochs[k])
		}
	}
	b = appendCount(b, len(req.Jobs))
	for i := range req.Jobs {
		j := &req.Jobs[i]
		same := i > 0 && j.Config == req.Jobs[i-1].Config
		var flags byte
		if j.WithSamples {
			flags |= flagWithSamples
		}
		if same {
			flags |= flagSameConfig
		}
		//lint:ignore hotalloc appends into the Conn's reused write buffer; amortized-free once warm
		b = append(b, flags)
		b = appendCount(b, j.Tree)
		b = appendInt(b, j.Specimen.Senders)
		b = appendF64(b, j.Specimen.LinkRateBps)
		b = appendF64(b, j.Specimen.RTTMs)
		b = binary.AppendVarint(b, j.Specimen.Seed)
		if !same {
			b = appendConfig(b, &j.Config)
		}
	}
	return b, nil
}

//repo:hotpath per-job design range, when it differs from the previous job's
func appendConfig(b []byte, c *optimizer.ConfigRange) []byte {
	b = appendInt(b, c.MinSenders)
	b = appendInt(b, c.MaxSenders)
	b = appendF64(b, c.LinkRateBps.Lo)
	b = appendF64(b, c.LinkRateBps.Hi)
	b = appendF64(b, c.RTTMs.Lo)
	b = appendF64(b, c.RTTMs.Hi)
	b = appendInt(b, int(c.OnMode))
	b = appendF64(b, c.MeanOnSeconds)
	b = appendF64(b, c.MeanOnBytes)
	b = appendF64(b, c.MeanOffSecs)
	b = appendInt(b, c.QueueCapacityPackets)
	b = binary.AppendVarint(b, int64(c.SpecimenDuration))
	return appendInt(b, c.Specimens)
}

//repo:hotpath per-batch response encoder
func appendResult(b []byte, resp *EvalResponse) []byte {
	b = binary.AppendUvarint(b, resp.ID)
	b = appendCount(b, len(resp.Error))
	//lint:ignore hotalloc appends into the Conn's reused write buffer; amortized-free once warm
	b = append(b, resp.Error...)
	b = appendCount(b, len(resp.Results))
	for i := range resp.Results {
		r := &resp.Results[i]
		b = appendF64(b, r.Sum)
		b = appendInt(b, r.Flows)
		b = appendCount(b, len(r.Counts))
		for _, c := range r.Counts {
			b = binary.AppendVarint(b, c)
		}
		b = appendCount(b, len(r.Consulted))
		for lo := 0; lo < len(r.Consulted); lo += 8 {
			var bits byte
			for k, on := range r.Consulted[lo:min(lo+8, len(r.Consulted))] {
				if on {
					bits |= 1 << k
				}
			}
			//lint:ignore hotalloc appends into the Conn's reused write buffer; amortized-free once warm
			b = append(b, bits)
		}
		b = appendCount(b, len(r.Samples))
		for _, row := range r.Samples {
			b = appendCount(b, len(row))
			for _, m := range row {
				b = appendF64(b, m.AckEWMA)
				b = appendF64(b, m.SendEWMA)
				b = appendF64(b, m.RTTRatio)
			}
		}
	}
	return b
}

// frameReader consumes a frame body front to back. The first failure sticks
// and empties the buffer, so every later read is a cheap no-op returning
// zero and callers check err once per loop.
type frameReader struct {
	b   []byte
	err error
	// blocks counts the elements allocated for the frame's row blocks, which
	// FuzzParseFrame bounds by the bytes that arrived.
	blocks int
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("distrib: decoding frame: "+format, args...)
	}
	r.b = nil
}

func (r *frameReader) byte() byte {
	if len(r.b) < 1 {
		r.fail("truncated")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) int64() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) int() int { return int(r.int64()) }

func (r *frameReader) f64() float64 {
	if len(r.b) < 8 {
		r.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// count reads an element count and refuses one whose elements, at minBytes
// each, could not fit in what is left of the frame — so a slice sized from
// the result is bounded by the bytes that actually arrived.
func (r *frameReader) count(what string, minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail("%d %s do not fit in the %d bytes left", n, what, len(r.b))
		return 0
	}
	return int(n)
}

func (r *frameReader) index(what string) int {
	n := r.uvarint()
	if n > maxIndex {
		r.fail("%s index %d out of range", what, n)
		return 0
	}
	return int(n)
}

// take returns the next n bytes, still aliasing the read buffer.
func (r *frameReader) take(n int) []byte {
	if n > len(r.b) {
		r.fail("truncated")
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// parseFrame decodes one frame body. The result shares no memory with b,
// which belongs to the Conn and is overwritten by the next read.
func parseFrame(b []byte) (*Frame, error) {
	r := frameReader{b: b}
	return r.frame()
}

func (r *frameReader) frame() (*Frame, error) {
	f := &Frame{}
	switch tag := r.byte(); {
	case r.err != nil:
	case tag == tagHello:
		f.Type = TypeHello
		f.Hello = &Hello{Version: r.int(), Parallel: r.int(), PID: r.int()}
	case tag == tagEval:
		f.Type = TypeEval
		f.Eval = r.eval()
	case tag == tagResult:
		f.Type = TypeResult
		f.Result = r.result()
	case tag == tagShutdown:
		f.Type = TypeShutdown
	case tag == '{':
		r.fail("peer speaks the JSON protocol (v1) — mixed binaries?")
	default:
		r.fail("unknown frame tag 0x%02x", tag)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes after the %s payload", len(r.b), f.Type)
	}
	if r.err != nil {
		return nil, r.err
	}
	return f, nil
}

func (r *frameReader) eval() *EvalRequest {
	req := &EvalRequest{ID: r.uvarint()}
	req.Objective.Alpha = r.f64()
	req.Objective.Beta = r.f64()
	req.Objective.Delta = r.f64()
	if n := r.count("trees", minTreeBytes); n > 0 {
		req.Trees = make([]json.RawMessage, n)
		for i := 0; i < n && r.err == nil; i++ {
			raw := r.take(r.count("tree bytes", 1))
			req.Trees[i] = append(json.RawMessage(nil), raw...)
		}
	}
	if n := r.count("variants", minVariantBytes); n > 0 {
		req.Variants = make([]Variant, n)
		rules := r.variantRules(n)
		r.blocks += 3 * rules
		blk := Variant{Rules: make([]int, rules), Actions: make([]core.Action, rules), Epochs: make([]int, rules)}
		for i := 0; i < n && r.err == nil; i++ {
			r.variant(&req.Variants[i], &blk)
		}
	}
	if n := r.count("jobs", minJobBytes); n > 0 {
		req.Jobs = make([]WireJob, n)
		for i := 0; i < n && r.err == nil; i++ {
			j := &req.Jobs[i]
			flags := r.byte()
			if flags&^(flagWithSamples|flagSameConfig) != 0 {
				r.fail("job %d has unknown flags 0x%02x", i, flags)
			}
			j.WithSamples = flags&flagWithSamples != 0
			j.Tree = r.index("tree")
			j.Specimen = optimizer.Specimen{Senders: r.int(), LinkRateBps: r.f64(), RTTMs: r.f64(), Seed: r.int64()}
			switch {
			case flags&flagSameConfig == 0:
				r.config(&j.Config)
			case i == 0:
				r.fail("job 0 claims the config of a previous job")
			default:
				j.Config = req.Jobs[i-1].Config
			}
		}
	}
	return req
}

// variantRules walks the next n variants on a copy of the reader and returns
// how many changed rules they hold: the size of the frame's blocks. It reads
// as variant does, so it stops where variant will fail.
func (r frameReader) variantRules(n int) int {
	rules := 0
	for i := 0; i < n && r.err == nil; i++ {
		r.index("base tree")
		k := r.count("changed rules", ruleChangeBytes)
		rules += k
		for ; k > 0 && r.err == nil; k-- {
			r.index("rule")
			r.take(3 * 8)
			r.int()
		}
	}
	return rules
}

// variant decodes one variant, carving its rows from the frame's blocks in
// blk.
func (r *frameReader) variant(v *Variant, blk *Variant) {
	v.Base = r.index("base tree")
	n := r.count("changed rules", ruleChangeBytes)
	if n == 0 {
		return
	}
	v.Rules, blk.Rules = blk.Rules[:n:n], blk.Rules[n:]
	v.Actions, blk.Actions = blk.Actions[:n:n], blk.Actions[n:]
	v.Epochs, blk.Epochs = blk.Epochs[:n:n], blk.Epochs[n:]
	for k := 0; k < n && r.err == nil; k++ {
		v.Rules[k] = r.index("rule")
		v.Actions[k] = core.Action{WindowMultiple: r.f64(), WindowIncrement: r.f64(), IntersendMs: r.f64()}
		v.Epochs[k] = r.int()
	}
}

func (r *frameReader) config(c *optimizer.ConfigRange) {
	c.MinSenders = r.int()
	c.MaxSenders = r.int()
	c.LinkRateBps = optimizer.Range{Lo: r.f64(), Hi: r.f64()}
	c.RTTMs = optimizer.Range{Lo: r.f64(), Hi: r.f64()}
	c.OnMode = workload.OnMode(r.int())
	c.MeanOnSeconds = r.f64()
	c.MeanOnBytes = r.f64()
	c.MeanOffSecs = r.f64()
	c.QueueCapacityPackets = r.int()
	c.SpecimenDuration = sim.Time(r.int64())
	c.Specimens = r.int()
}

// usageTotals walks the next n results on a copy of the reader and returns
// how many counts and consulted bits they hold: the sizes of the frame's
// blocks. It reads as result does, so it stops where result will fail.
func (r frameReader) usageTotals(n int) (counts, bits int) {
	for i := 0; i < n && r.err == nil; i++ {
		r.f64()
		r.int()
		nc := r.count("counts", 1)
		counts += nc
		for k := 0; k < nc; k++ {
			r.int64()
		}
		nb := r.uvarint()
		if nb > 8*uint64(len(r.b)) {
			break
		}
		bits += int(nb)
		r.take((int(nb) + 7) / 8)
		rows := r.count("sample rows", 1)
		for k := 0; k < rows && r.err == nil; k++ {
			r.take(pointBytes * r.count("sample points", pointBytes))
		}
	}
	return counts, bits
}

// result decodes a result frame's payload. Its allocations are per frame,
// not per result, except for the sample rows of the jobs that collected them.
//
//repo:hotpath per-batch response decoder on the coordinator
func (r *frameReader) result() *EvalResponse {
	resp := &EvalResponse{ID: r.uvarint()}
	resp.Error = string(r.take(r.count("error bytes", 1)))
	n := r.count("results", minResultBytes)
	if n == 0 {
		return resp
	}
	resp.Results = make([]WireResult, n)
	nc, nb := r.usageTotals(n)
	r.blocks += nc + nb
	counts, consulted := make([]int64, nc), make([]bool, nb)
	for i := 0; i < n && r.err == nil; i++ {
		res := &resp.Results[i]
		res.Sum = r.f64()
		res.Flows = r.int()
		if nc := r.count("counts", 1); nc > 0 {
			res.Counts, counts = counts[:nc:nc], counts[nc:]
			for k := range res.Counts {
				res.Counts[k] = r.int64()
			}
		}
		nb := r.uvarint()
		if nb > 8*uint64(len(r.b)) {
			r.fail("%d consulted bits do not fit in the %d bytes left", nb, len(r.b))
			return resp
		}
		if nb > 0 {
			res.Consulted, consulted = consulted[:nb:nb], consulted[nb:]
			bitmap := r.take((int(nb) + 7) / 8)
			for k := range res.Consulted {
				res.Consulted[k] = bitmap[k/8]&(1<<(k%8)) != 0
			}
		}
		if rows := r.count("sample rows", 1); rows > 0 {
			res.Samples = make([][]core.Memory, rows)
			for k := 0; k < rows && r.err == nil; k++ {
				if np := r.count("sample points", pointBytes); np > 0 {
					row := make([]core.Memory, np)
					for p := range row {
						row[p] = core.Memory{AckEWMA: r.f64(), SendEWMA: r.f64(), RTTRatio: r.f64()}
					}
					res.Samples[k] = row
				}
			}
		}
	}
	return resp
}
