package supervise

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

var errFlaky = errors.New("flaky")

func TestRun(t *testing.T) {
	errBad := errors.New("deterministic failure")
	cases := []struct {
		name   string
		policy Policy
		// attempt is the n-th attempt's outcome (n from 1); nil means the
		// attempt blocks, ignoring its context, until the case ends — a
		// wedged simulation.
		attempt func(n int) (int, error)
		// cancelAfter, when positive, cancels the caller's context that long
		// after Run starts.
		cancelAfter time.Duration
		wantV       int
		wantN       int
		wantErr     func(error) bool
		within      time.Duration
	}{
		{
			name:    "success first try",
			policy:  Policy{Attempts: 3},
			attempt: func(int) (int, error) { return 7, nil },
			wantV:   7, wantN: 1, wantErr: isNil, within: time.Second,
		},
		{
			name:    "retry then success",
			policy:  Policy{Attempts: 5, Backoff: time.Millisecond},
			attempt: func(n int) (int, error) { return n, flakyUntil(n, 3) },
			wantV:   3, wantN: 3, wantErr: isNil, within: time.Second,
		},
		{
			name:    "permanent stops after one attempt",
			policy:  Policy{Attempts: 3, Backoff: time.Millisecond},
			attempt: func(int) (int, error) { return 0, Permanent(errBad) },
			wantN:   1, wantErr: func(err error) bool { return err == errBad }, within: time.Second,
		},
		{
			name:    "exhausted attempts return the last error",
			policy:  Policy{Attempts: 3, Backoff: time.Millisecond},
			attempt: func(n int) (int, error) { return 0, fmt.Errorf("failure %d", n) },
			wantN:   3, wantErr: func(err error) bool { return err != nil && err.Error() == "failure 3" }, within: time.Second,
		},
		{
			name:    "attempts below one mean one",
			policy:  Policy{Backoff: time.Millisecond},
			attempt: func(int) (int, error) { return 0, errFlaky },
			wantN:   1, wantErr: isFlaky, within: time.Second,
		},
		{
			name:   "blocked attempts are abandoned at the timeout",
			policy: Policy{Attempts: 2, Backoff: time.Millisecond, Timeout: 50 * time.Millisecond},
			wantN:  2, wantErr: func(err error) bool {
				var te TimeoutError
				return errors.As(err, &te) && te.Timeout == 50*time.Millisecond
			},
			within: 2*50*time.Millisecond + 400*time.Millisecond,
		},
		{
			name:        "cancel during backoff returns promptly",
			policy:      Policy{Attempts: 3, Backoff: 3 * time.Second},
			attempt:     func(int) (int, error) { return 0, errFlaky },
			cancelAfter: 20 * time.Millisecond,
			wantN:       1, wantErr: isCanceled, within: time.Second,
		},
		{
			name:        "cancel during a blocked attempt returns promptly",
			policy:      Policy{Attempts: 3},
			cancelAfter: 20 * time.Millisecond,
			wantN:       1, wantErr: isCanceled, within: time.Second,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			release := make(chan struct{})
			var mu sync.Mutex
			var ctxs []context.Context
			attempt := func(ctx context.Context) (int, error) {
				mu.Lock()
				ctxs = append(ctxs, ctx)
				n := len(ctxs)
				mu.Unlock()
				if tc.attempt == nil {
					// The bound turns a Run that waits for a wedged attempt
					// into a failure rather than a hung test.
					select {
					case <-release:
					case <-time.After(5 * time.Second):
					}
					return 0, errFlaky
				}
				return tc.attempt(n)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelAfter > 0 {
				defer time.AfterFunc(tc.cancelAfter, cancel).Stop()
			}

			start := time.Now()
			v, n, err := Run(ctx, tc.policy, attempt)
			elapsed := time.Since(start)

			if v != tc.wantV || n != tc.wantN || !tc.wantErr(err) {
				t.Errorf("Run = (%d, %d attempts, %v); want value %d after %d attempts", v, n, err, tc.wantV, tc.wantN)
			}
			if elapsed > tc.within {
				t.Errorf("Run took %v, want at most %v", elapsed, tc.within)
			}
			mu.Lock()
			started := len(ctxs)
			for i, actx := range ctxs {
				if actx.Err() == nil {
					t.Errorf("attempt %d's context is still live after Run returned", i+1)
				}
			}
			mu.Unlock()
			if started != tc.wantN {
				t.Errorf("%d attempts started, Run reported %d", started, tc.wantN)
			}

			// Once every attempt has returned — the wedged ones when released —
			// no goroutine Run started is left.
			close(release)
			cancel()
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > baseline {
				t.Errorf("%d goroutines outlive the returned attempts (baseline %d)", g-baseline, baseline)
			}
		})
	}
}

func flakyUntil(n, ok int) error {
	if n < ok {
		return errFlaky
	}
	return nil
}

func isNil(err error) bool      { return err == nil }
func isFlaky(err error) bool    { return errors.Is(err, errFlaky) }
func isCanceled(err error) bool { return errors.Is(err, context.Canceled) }
