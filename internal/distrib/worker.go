package distrib

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/optimizer"
)

// ErrChaosExit is returned by Serve when ServeOptions.ExitAfterBatches
// fires: the worker abandons the stream without answering the in-flight
// request, simulating a mid-round crash. cmd/remy turns it into a non-zero
// exit; the coordinator sees the dead stream, respawns the slot and
// re-dispatches the batch.
var ErrChaosExit = errors.New("distrib: chaos exit (ExitAfterBatches reached)")

// ServeOptions configures a worker loop.
type ServeOptions struct {
	// Parallel is the size of the worker's inner simulation pool (the
	// scenario.Pool RunBatchLocal runs its shard on); <= 0 means 1. The parallelism split lives at the process
	// level by default: N worker processes × 1 inner goroutine measures and
	// scales cleanly, and a machine-sized worker can raise this instead.
	Parallel int
	// ExitAfterBatches, when non-zero, makes Serve return ErrChaosExit
	// instead of answering batch number ExitAfterBatches+1 (negative: the
	// very first batch). It exists for the crash-respawn tests and the CI
	// chaos smoke — a deterministic stand-in for kill -9 mid-round.
	ExitAfterBatches int
	// Logf, if non-nil, receives progress messages (cmd/remy sends them to
	// stderr, which the coordinator process passes through).
	Logf func(format string, args ...any)
}

func (o ServeOptions) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return 1
}

func (o ServeOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Serve runs the worker side of the protocol over the given stream until
// the peer shuts it down (clean io.EOF or a shutdown frame → nil) or the
// stream breaks. It sends the handshake hello, then answers eval batches by
// running each batch's jobs through optimizer.RunBatchLocal — the exact
// code path an in-process evaluation takes.
func Serve(r io.Reader, w io.Writer, opts ServeOptions) error {
	conn := NewConn(r, w)
	hello := &Hello{Version: ProtocolVersion, Parallel: opts.parallel(), PID: os.Getpid()}
	if err := conn.WriteFrame(&Frame{Type: TypeHello, Hello: hello}); err != nil {
		return fmt.Errorf("distrib: sending hello: %w", err)
	}
	served := 0
	for {
		f, err := conn.ReadFrame()
		if err == io.EOF {
			return nil // coordinator closed the stream; clean exit
		}
		if err != nil {
			return err
		}
		switch f.Type {
		case TypeShutdown:
			return nil
		case TypeEval:
			if f.Eval == nil {
				return fmt.Errorf("distrib: eval frame without payload")
			}
			if opts.ExitAfterBatches != 0 && served >= opts.ExitAfterBatches {
				return ErrChaosExit
			}
			resp := serveEval(f.Eval, opts)
			if err := conn.WriteFrame(&Frame{Type: TypeResult, Result: resp}); err != nil {
				return err
			}
			served++
			opts.logf("distrib worker: batch %d done (%d jobs)", f.Eval.ID, len(f.Eval.Jobs))
		default:
			return fmt.Errorf("distrib: unexpected frame type %q", f.Type)
		}
	}
}

// serveEval executes one batch. Request-level failures (undecodable trees,
// failing simulations) come back in the response's Error field rather than
// tearing the stream down: the worker is still healthy, and the coordinator
// must distinguish "this batch is malformed" from "this worker died".
func serveEval(req *EvalRequest, opts ServeOptions) *EvalResponse {
	jobs, err := decodeJobs(req)
	if err != nil {
		return &EvalResponse{ID: req.ID, Error: err.Error()}
	}
	results, err := optimizer.RunBatchLocal(req.Objective, opts.parallel(), jobs)
	if err != nil {
		return &EvalResponse{ID: req.ID, Error: err.Error()}
	}
	wire := make([]WireResult, len(results))
	for i, br := range results {
		wire[i] = WireResult{Sum: br.Sum, Flows: br.Flows, Counts: br.Counts, Consulted: br.Consulted, Samples: br.Samples}
	}
	return &EvalResponse{ID: req.ID, Results: wire}
}
