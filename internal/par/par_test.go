package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 37
		hits := make([]int32, n)
		err := For(workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForIndexedSlotsMatchSequential(t *testing.T) {
	n := 64
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	got := make([]int, n)
	if err := For(8, n, func(i int) error {
		got[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("slot %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	// Sequential mode hits task 3 first, full stop.
	err := For(1, 10, func(i int) error {
		if i == 3 || i == 7 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 3 failed" {
		t.Errorf("workers=1: got %v, want task 3's error", err)
	}
	// Parallel mode stops dispatching once a task fails; the error is the
	// lowest-index failure among the tasks that ran.
	err = For(4, 10, func(i int) error {
		if i == 3 || i == 7 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil || !strings.HasSuffix(err.Error(), "failed") {
		t.Errorf("workers=4: got %v, want a task error", err)
	}
}

func TestForStopsDispatchingAfterFailure(t *testing.T) {
	// All tasks fail; with early exit far fewer than n should run. The
	// bound is loose (workers may each pull one more index before seeing
	// the flag) but distinguishes early exit from run-everything.
	var ran atomic.Int32
	err := For(2, 1000, func(i int) error {
		ran.Add(1)
		return fmt.Errorf("task %d failed", i)
	})
	if err == nil {
		t.Fatal("want error")
	}
	if n := ran.Load(); n > 10 {
		t.Errorf("%d tasks ran after first failure, want early exit", n)
	}
}

func TestForZeroTasks(t *testing.T) {
	if err := For(4, 0, func(int) error { return fmt.Errorf("must not run") }); err != nil {
		t.Error(err)
	}
}

func TestForSequentialStopsAtFirstError(t *testing.T) {
	ran := 0
	err := For(1, 10, func(i int) error {
		ran++
		if i == 2 {
			return fmt.Errorf("stop")
		}
		return nil
	})
	if err == nil || ran != 3 {
		t.Errorf("sequential mode ran %d tasks (err %v), want stop after 3", ran, err)
	}
}

func TestForCtxCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		n := 37
		hits := make([]int32, n)
		err := ForCtx(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForCtxStopsSchedulingOnCancel(t *testing.T) {
	// The first tasks cancel the context; far fewer than n tasks may run
	// afterwards (workers may each pull one more index before noticing).
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForCtx(ctx, workers, 1000, func(i int) error {
			ran.Add(1)
			cancel()
			return nil
		})
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n > 20 {
			t.Errorf("workers=%d: %d tasks ran after cancellation, want early exit", workers, n)
		}
		cancel()
	}
}

func TestForCtxTaskErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := ForCtx(ctx, 4, 100, func(i int) error {
		if i == 0 {
			cancel()
			return fmt.Errorf("task 0 failed")
		}
		return nil
	})
	cancel()
	if err == nil || err.Error() != "task 0 failed" {
		t.Errorf("got %v, want task 0's error", err)
	}
}

func TestForCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForCtx(ctx, workers, 8, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		// Parallel workers may each run at most one task before observing
		// the cancelled context; sequential mode must run none.
		if n := ran.Load(); workers == 1 && n != 0 {
			t.Errorf("workers=1: %d tasks ran under a cancelled context", n)
		}
	}
}

func TestForCtxCompletedRunReturnsNil(t *testing.T) {
	// Cancellation after every index completed is not an error: the work
	// is all done.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ForCtx(ctx, 4, 64, func(int) error { return nil }); err != nil {
		t.Errorf("completed run: %v", err)
	}
}

func TestMapCtxCollectsInIndexOrder(t *testing.T) {
	out, err := MapCtx(context.Background(), 8, 32, func(i int) (int, error) {
		return i * 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*3 {
			t.Errorf("slot %d = %d, want %d", i, v, i*3)
		}
	}
}

func TestMapCtxDropsResultsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapCtx(ctx, 4, 16, func(i int) (int, error) { return i, nil })
	if err == nil {
		t.Fatal("want error from cancelled context")
	}
	if out != nil {
		t.Errorf("partial results returned: %v", out)
	}
}

// TestForWorkerCtxWorkerRunsOneTaskAtATime: every task runs once, on a
// worker in [0, min(workers, n)), and no worker runs two tasks at once —
// what lets a task use per-worker scratch without a lock. Inline (one
// worker) every task is worker 0's.
func TestForWorkerCtxWorkerRunsOneTaskAtATime(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 200
		var busy [8]atomic.Int32
		var ran [n]atomic.Int32
		err := ForWorkerCtx(context.Background(), workers, n, func(w, i int) error {
			if w < 0 || w >= min(workers, n) {
				return fmt.Errorf("task %d on worker %d of %d", i, w, workers)
			}
			if busy[w].Add(1) != 1 {
				return fmt.Errorf("worker %d ran two tasks at once", w)
			}
			ran[i].Add(1)
			runtime.Gosched()
			busy[w].Add(-1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers %d: task %d ran %d times", workers, i, got)
			}
		}
	}
}
