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

// minTaskFLOPs is the least work worth shipping to a pool worker. A
// hand-off costs 10–40 µs on the small shared VMs this runs on while the
// worker is still spinning and a few hundred once its vCPU has gone idle —
// what the FMA kernels need for 1–30 MFLOP — so a partition must carry
// about that much before the split pays. Measured per denoise step at
// parallelism 2 against 1, interleaved: flux-sim runs 1.2× faster with the
// threshold anywhere in 4–16 MFLOP (its FFN GEMMs and its attention, 33
// MFLOP each, split) and no faster above; sdxl-sim and sd21-sim (GEMMs of
// 0.5–11 MFLOP) lose 4–9% below 8 and stay on the caller from there.
// A variable only so that tests can lower it and exercise the split at
// small shapes.
var minTaskFLOPs = 8 << 20

// taskCount is the number of row partitions for a kernel call of rows
// rows costing rowFLOPs each: the parallelism budget, capped so that every
// partition carries at least minTaskFLOPs.
func taskCount(rows, rowFLOPs int) int {
	p := Parallelism()
	if most := rows * rowFLOPs / minTaskFLOPs; p > most {
		p = most
	}
	return max(p, 1)
}

// shouldParallelize reports whether a kernel call should take the parallel
// path. Hot kernels branch on this BEFORE constructing the parallelRows
// closure, so the serial path performs zero heap allocations.
func shouldParallelize(rows, rowFLOPs int) bool {
	return taskCount(rows, rowFLOPs) > 1
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

// parallelRows runs fn over row ranges [lo, hi) split into taskCount
// partitions. The partition depends only on (rows, rowFLOPs,
// Parallelism()) and each output row belongs to exactly one range, so
// results are bit-identical to fn(0, rows) at any budget and on any number
// of pool workers. Calls too small to split run serially.
func parallelRows(rows, rowFLOPs int, fn func(lo, hi int)) {
	p := taskCount(rows, rowFLOPs)
	// Align partitions to the matmul micro-kernel height, so a split never
	// turns full 4-row tiles into remainder rows. GEMM rows are independent
	// of their row group (see matmul.go), so this is for speed, not bits.
	chunk := ((rows+p-1)/p + mcRows - 1) &^ (mcRows - 1)
	if chunk >= rows {
		fn(0, rows)
		return
	}
	poolOnce.Do(startPool)
	var wg sync.WaitGroup
	for lo := chunk; lo < rows; lo += chunk {
		wg.Add(1)
		poolCh <- task{fn: fn, lo: lo, hi: min(lo+chunk, rows), wg: &wg}
	}
	fn(0, chunk)
	wg.Wait()
}
