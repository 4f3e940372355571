package scenario

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/supervise"
)

// TestPoolRetriesATimedOutGroup runs one group of three tasks on one worker
// under a watchdog. The first attempt's second task wedges past it: the
// attempt is abandoned, its worker replaced, and the group retried whole, so
// Done receives the second attempt's results in index order. The wedged
// task, returning later, changes nothing.
func TestPoolRetriesATimedOutGroup(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int32
	var got []int
	attempts := 0
	p := Pool[int]{
		Workers: 1,
		Policy:  supervise.Policy{Attempts: 2, Timeout: 50 * time.Millisecond, Backoff: time.Millisecond},
		Open:    func(int) (int, error) { return 3, nil },
		Task: func(_ *Worker, g, i int, out *int) error {
			if calls.Add(1) == 2 {
				<-release
			}
			*out = 10*g + i
			return nil
		},
		Done: func(_ int, results []int, n int, err error) error {
			got, attempts = slices.Clone(results), n
			return err
		},
	}
	if err := p.Run(nil, 1); err != nil {
		t.Fatal(err)
	}
	close(release)
	if attempts != 2 || !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("Done got %v after %d attempts, want [0 1 2] after 2", got, attempts)
	}
	if n := calls.Load(); n != 5 {
		t.Errorf("tasks started %d times, want 2 in the abandoned attempt and 3 in the retry", n)
	}
}

// TestPoolOpenErrorFailsTheGroup: a group Open cannot open is done, failed,
// after one attempt and no task; the groups around it run.
func TestPoolOpenErrorFailsTheGroup(t *testing.T) {
	errOpen := errors.New("cannot open")
	var ran atomic.Int32
	failed := map[int]int{}
	p := Pool[struct{}]{
		Workers: 2,
		Open: func(g int) (int, error) {
			if g == 1 {
				return 0, errOpen
			}
			return 2, nil
		},
		Task: func(*Worker, int, int, *struct{}) error { ran.Add(1); return nil },
		Done: func(g int, _ []struct{}, n int, err error) error {
			if err != nil {
				failed[g] = n
			}
			return nil
		},
	}
	if err := p.Run(nil, 3); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 || len(failed) != 1 || failed[1] != 1 {
		t.Errorf("ran %d tasks, failed groups %v; want 4 tasks and group 1 failed after 1 attempt", ran.Load(), failed)
	}
}
