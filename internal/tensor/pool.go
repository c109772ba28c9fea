package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shared worker pool behind every parallel kernel in this package.
//
// Determinism contract: ParallelFor partitions [0, n) into contiguous
// blocks and every index is processed by exactly one block, so a kernel
// whose per-index computation does not depend on the partition produces
// bit-identical results at any worker count. All kernels in this package
// (MatMul, Gemm, GemmTA, MatMulTB and the nn loops built on ParallelFor)
// are written row-owned in exactly that way: each output row receives
// its floating-point additions in the same order regardless of how rows
// are grouped into blocks.
//
// The pool is a fixed set of GOMAXPROCS−1 helper goroutines draining a
// shared task queue; submission never blocks (a chunk whose submission
// would block runs inline on the caller), so concurrent ParallelFor
// callers — e.g. experiment specs running under the scheduler's own
// pool — share the helpers without deadlock. ParallelFor bodies must not
// call ParallelFor recursively; every kernel here is a leaf loop.

// workerTarget is the number of blocks ParallelFor splits work into.
// 0 means "use GOMAXPROCS at call time".
var workerTarget atomic.Int32

// SetWorkers sets the kernel parallelism: the number of row blocks each
// parallel kernel is split into. n <= 0 resets to GOMAXPROCS. Results
// are bit-identical at any setting; only wall-clock changes. Safe to
// call concurrently with running kernels (takes effect on subsequent
// calls).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerTarget.Store(int32(n))
}

// Workers returns the current kernel parallelism target.
func Workers() int {
	if w := int(workerTarget.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

var (
	poolOnce  sync.Once
	poolTasks chan func()
)

// ensurePool starts the helper goroutines on first use. GOMAXPROCS−1
// helpers plus the submitting goroutine saturate the machine without
// oversubscribing it.
func ensurePool() {
	poolOnce.Do(func() {
		helpers := runtime.GOMAXPROCS(0) - 1
		if helpers < 0 {
			helpers = 0
		}
		// Queue capacity scales with (and vanishes at zero) helpers: a
		// task may only be parked if some helper will drain it;
		// otherwise the non-blocking submit falls through and the chunk
		// runs on the caller.
		poolTasks = make(chan func(), 2*helpers)
		for i := 0; i < helpers; i++ {
			go func() {
				for f := range poolTasks {
					f()
				}
			}()
		}
	})
}

// ParallelFor runs body over [0, n) split into contiguous blocks, one
// block per worker, and returns when all blocks are done. grain is the
// minimum block size worth a dispatch; work below 2*grain runs inline.
// body(lo, hi) must touch only state owned by indexes in [lo, hi).
func ParallelFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	if maxW := n / grain; w > maxW {
		w = maxW
	}
	if w <= 1 {
		body(0, n)
		return
	}
	ensurePool()
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for t := 1; t < w; t++ {
		lo, hi := t*n/w, (t+1)*n/w
		task := func() {
			body(lo, hi)
			wg.Done()
		}
		select {
		case poolTasks <- task:
		default:
			task() // queue full: run on the caller rather than block
		}
	}
	body(0, n/w)
	wg.Wait()
}
