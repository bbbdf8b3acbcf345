// Package par provides the bounded fan-out primitive for work that is
// independent by construction: whole runs, tenants, sweep cells and
// offline learning tasks. It maps them onto indexed task slots:
// workers pull task indices from a shared counter, write results into
// per-index slots, and the caller reduces the slots in index order — so a
// parallel run produces bit-identical output to the sequential loop it
// replaces, regardless of scheduling order. Workers == 1 degenerates to
// the plain inline loop.
//
// The pool is never entered from inside a decision: a tick's L2, L1 and
// L0 decisions, like the centralized baseline's, run on one goroutine,
// which keeps the explored-state counters and the flight-recorder
// sequence deterministic (hotalloc rejects a call into this package from
// a //hpm:hotpath function).
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a pool bound to an effective worker count: values <= 0
// mean "one worker per available CPU" (runtime.GOMAXPROCS), which is how
// every sweep pool is sized.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs fn(i) for every i in [0, n) across at most workers goroutines.
// Task side effects must be confined to the task's own index (write into
// slot i of a pre-sized slice); under that contract the outcome is
// identical to the sequential loop. Once any task fails, workers stop
// pulling new indices (in-flight tasks finish) and the lowest-index error
// among the tasks that ran is returned — the error a sequential loop
// would have hit first among those. With workers <= 1 the tasks run
// inline in index order, stopping at the first error exactly like the
// pre-parallel code did.
func For(workers, n int, fn func(i int) error) error {
	return ForCtx(context.Background(), workers, n, fn)
}

// Map runs fn(i) for every i in [0, n) across at most workers goroutines
// and collects the results in index order — the indexed-slot fan-out
// pattern the experiment sweeps share. On error the partial results are
// dropped and the lowest-index error is returned, per For's contract.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, n, fn)
}

// ForCtx is For with cooperative cancellation: once ctx is cancelled,
// workers stop pulling new indices (tasks already in flight finish).
// Errors keep For's contract — the lowest-index task error wins; when no
// task failed but cancellation kept some indices from ever running, the
// context's error is returned. A nil error therefore still means every
// task ran and succeeded. Long-running tasks that should stop mid-flight
// must watch ctx themselves.
func ForCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForWorkerCtx(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// ForWorkerCtx is ForCtx telling each task which worker runs it: fn(w, i)
// runs task i on worker w, in [0, min(workers, n)), and a worker runs one
// task at a time — so a task may use per-worker scratch indexed by w
// without a lock. With workers <= 1 every task runs inline as worker 0.
func ForWorkerCtx(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next, completed atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = fn(w, i); errs[i] != nil {
					failed.Store(true)
				}
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if int(completed.Load()) < n {
		return ctx.Err()
	}
	return nil
}

// MapCtx is Map with ForCtx's cancellation semantics: results are only
// returned when every task ran and succeeded.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForCtx(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
