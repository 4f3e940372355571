// Package supervise runs a task under a watchdog with bounded retries: each
// attempt runs on its own goroutine under a context that ends at its
// wall-clock timeout or when the caller gives up, a timed-out attempt is
// abandoned, not awaited, because a wedged simulation cannot be killed, and a
// failed one is retried after a backoff. Campaign cells and distributed
// batches run through it; no other package outside cmd/ reads the wall clock.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Policy bounds one supervised task.
type Policy struct {
	// Attempts is the most attempts Run makes; < 1 means 1.
	Attempts int
	// Backoff is the pause before every attempt after the first.
	Backoff time.Duration
	// Timeout, when positive, bounds each attempt's wall-clock time.
	Timeout time.Duration
}

// TimeoutError is the error of an attempt that outran Policy.Timeout.
type TimeoutError struct{ Timeout time.Duration }

func (e TimeoutError) Error() string {
	return fmt.Sprintf("no result within the %v watchdog; attempt abandoned", e.Timeout)
}

type permanent struct{ err error }

func (p permanent) Error() string { return p.err.Error() }

// Permanent marks err as one that retrying cannot change: Run returns it,
// unwrapped, without another attempt.
func Permanent(err error) error { return permanent{err} }

// Run calls attempt until it succeeds, fails with a Permanent error, or has
// failed Policy.Attempts times. It returns the value, the attempts made, and
// nil, the Permanent error, the last error (a TimeoutError for a timed-out
// attempt) or, as soon as ctx is done, even mid-attempt or backoff, ctx.Err().
func Run[T any](ctx context.Context, p Policy, attempt func(context.Context) (T, error)) (T, int, error) {
	var zero T
	for a := 1; ; a++ {
		v, err := once(ctx, p.Timeout, attempt)
		var perm permanent
		switch {
		case err == nil:
			return v, a, nil
		case ctx.Err() != nil:
			return zero, a, ctx.Err()
		case errors.As(err, &perm):
			return zero, a, perm.err
		case a >= p.Attempts:
			return zero, a, err
		}
		backoff := time.NewTimer(p.Backoff)
		select {
		case <-backoff.C:
		case <-ctx.Done():
			backoff.Stop()
			return zero, a, ctx.Err()
		}
	}
}

type outcome[T any] struct {
	v   T
	err error
}

// once runs one attempt on its own goroutine and waits for it or for the end
// of its context, the timeout or ctx (which Run reports itself), reported as a
// TimeoutError. The context ends when once returns, telling an abandoned
// attempt to stop; its outcome lands in the buffer and is never read.
func once[T any](ctx context.Context, timeout time.Duration, attempt func(context.Context) (T, error)) (T, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	if timeout > 0 {
		// Before once returns, only this timer cancels actx without ctx.
		defer time.AfterFunc(timeout, cancel).Stop()
	}
	done := make(chan outcome[T], 1)
	go func() {
		v, err := attempt(actx)
		done <- outcome[T]{v, err}
	}()
	select {
	case o := <-done:
		if o.err == nil || actx.Err() == nil {
			return o.v, o.err
		}
	case <-actx.Done():
	}
	var zero T
	return zero, TimeoutError{timeout}
}
