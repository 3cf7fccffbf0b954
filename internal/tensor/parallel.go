package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the number of row partitions numeric kernels may use.
// Row-partitioned parallelism keeps results bit-identical to the serial
// path (each output row is computed by exactly one invocation with the same
// operation order), so experiments stay reproducible at any setting.
var parallelism atomic.Int32

func init() { parallelism.Store(1) }

// SetParallelism sets the kernel parallelism budget (values < 1 mean 1).
// Deterministic results are preserved at any setting. Binaries that want
// full-machine kernels set runtime.GOMAXPROCS(0); the library default is 1
// so tests and experiments are serial unless asked otherwise.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism.Store(int32(n))
}

// Parallelism returns the current kernel parallelism budget.
func Parallelism() int { return int(parallelism.Load()) }

// minRowsPerTask is the smallest row partition worth shipping to a worker.
const minRowsPerTask = 16

// shouldParallelize reports whether a kernel over rows should take the
// parallel path. Hot kernels branch on this BEFORE constructing the
// parallelRows closure, so the serial path performs zero heap allocations.
func shouldParallelize(rows int) bool {
	return Parallelism() > 1 && rows >= 2*minRowsPerTask
}

// task is one row partition of a kernel call, executed by the worker pool.
type task struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// The persistent worker pool. Workers are started once, on the first
// parallel kernel call, and live for the process lifetime; kernels then
// dispatch row partitions over a channel instead of spawning goroutines
// per call. Pool size is GOMAXPROCS-1 (the calling goroutine always
// executes the first partition itself, so GOMAXPROCS cores are busy).
var (
	poolOnce sync.Once
	poolCh   chan task
)

func startPool() {
	workers := runtime.GOMAXPROCS(0) - 1
	if workers < 1 {
		workers = 1
	}
	poolCh = make(chan task, 8*workers)
	for i := 0; i < workers; i++ {
		go func() {
			for t := range poolCh {
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
}

// parallelRows runs fn over row ranges [lo, hi) split across the
// configured parallelism budget. The partition depends only on
// (rows, Parallelism()) and each output row belongs to exactly one range,
// so results are bit-identical to fn(0, rows) at any budget and on any
// number of pool workers. Small row counts run serially.
func parallelRows(rows int, fn func(lo, hi int)) {
	p := Parallelism()
	if p <= 1 || rows < 2*minRowsPerTask {
		fn(0, rows)
		return
	}
	if max := rows / minRowsPerTask; p > max {
		p = max
	}
	poolOnce.Do(startPool)
	chunk := (rows + p - 1) / p
	// Align partitions to the matmul micro-kernel height, so a split never
	// turns full 4-row tiles into remainder rows. GEMM rows are independent
	// of their row group (see matmul.go), so this is for speed, not bits.
	chunk = (chunk + mcRows - 1) &^ (mcRows - 1)
	var wg sync.WaitGroup
	for lo := chunk; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		poolCh <- task{fn: fn, lo: lo, hi: hi, wg: &wg}
	}
	fn(0, chunk)
	wg.Wait()
}
