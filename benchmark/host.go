package main

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few vCPUs of a shared host, and each vCPU changes
// speed on its own every few seconds: the same work takes 1.0x, 1.3x or
// 1.6x as long depending on what a neighbour does on the sibling
// hyperthread (README.md, "Noise study"). Every timing the server produces
// moves with it, so runs of the same code minutes apart disagree by more
// than any bound worth having.
//
// The host meter keeps one thread pinned to each vCPU that, every
// beatEvery, times a fixed piece of work — the benchmark's own code, nothing
// from the repository, so no change to the program can move it: a scalar
// GEMM out of cache for two thirds of the time and a pointer chase through
// memory for one, because a busy sibling hyperthread slows arithmetic far
// more than it slows waiting for memory, and the server does both (its
// edits about evenly; its PNG, JSON and checksum code mostly arithmetic). A beat relative to
// refBeatMS says how many times slower than the reference host that vCPU
// was at that moment. The meter also samples the kernel's
// per-vCPU busy time, which says where this process's work ran (nothing
// else runs in the VM). The host factor over an interval is the vCPUs'
// slowness weighted by the share of the work each did.
//
// End-to-end timings are divided by the factor around their own interval
// (rates multiplied), and an open loop's schedule is paced by the current
// factor, so a run reports the latency and throughput the program would
// show at the reference host speed and the same utilisation. The raw
// wall-clock figures and the factor are printed beside them, and the traced
// run reports wall-clock figures only.

const (
	// refBeatMS is one beat on a quiet vCPU of the VM the workloads were
	// sized on (2.1 GHz Xeon).
	refBeatMS = 0.41
	beatEvery = 50 * time.Millisecond // per vCPU; a beat takes ~0.7 ms with its warm-up, so the meter costs each ~1.4%
	// minWindow is the shortest stretch of time a factor is taken over:
	// shorter intervals are widened around their middle. It holds a dozen
	// beats per vCPU and some sixty ticks of busy time.
	minWindow = 600 * time.Millisecond
	minBeats  = 5  // per vCPU; a window with fewer widens to the nearest ones
	minTicks  = 10 // busy ticks below which a window's work is taken as evenly spread
	maxVCPUs  = 8  // more than this and the meter runs one unpinned thread

	beatM, beatK, beatN = 48, 192, 48 // GEMM operands of 80 KB: they stay in L2
	chaseLines          = 1 << 16     // the chase's cycle: 4 MB of cache lines, more than an L2 holds
	chaseHops           = 512         // dependent loads per beat: half the time the GEMM takes
	lineInts            = 16          // int32s per 64-byte line
)

// beater is the meter's thread on one vCPU and its record.
type beater struct {
	cpu     int // -1: not pinned
	a, b, c []float32
	next    []int32 // next[i] is the line after line i/lineInts in a random cycle through all lines
	pos     int32
	at      []time.Time // when each beat ended, ascending
	beat    []float64   // ms
}

type hostMeter struct {
	mu      sync.Mutex
	beaters []*beater
	// busy[i][k] is vCPU beaters[k].cpu's cumulative busy ticks at busyAt[i].
	busyAt []time.Time
	busy   [][]float64

	stop chan struct{}
	wg   sync.WaitGroup
}

// startHostMeter takes one beat per vCPU and keeps beating until close.
func startHostMeter() *hostMeter {
	m := &hostMeter{stop: make(chan struct{})}
	cpus := allowedCPUs()
	if len(cpus) == 0 || len(cpus) > maxVCPUs {
		cpus = []int{-1}
	}
	var (
		pinned  = make(chan bool)
		begin   = make(chan struct{})
		started = make(chan struct{})
	)
	for k, cpu := range cpus {
		b := newBeater(cpu)
		m.beaters = append(m.beaters, b)
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			// The thread dies with the goroutine, so the affinity never
			// reaches another goroutine.
			runtime.LockOSThread()
			pinned <- cpu < 0 || pin(cpu) == nil
			<-begin
			m.once(b, k == 0)
			started <- struct{}{}
			// Staggered, so that the vCPUs are not all taken at once.
			select {
			case <-m.stop:
				return
			case <-time.After(beatEvery * time.Duration(k) / time.Duration(len(cpus))):
			}
			tick := time.NewTicker(beatEvery)
			defer tick.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-tick.C:
					m.once(b, k == 0)
				}
			}
		}()
	}
	ok := true
	for range cpus {
		ok = <-pinned && ok
	}
	if !ok { // threads that could not be pinned measure some vCPU or other: no telling which
		for _, b := range m.beaters {
			b.cpu = -1
		}
	}
	close(begin)
	for range cpus {
		<-started
	}
	return m
}

func (m *hostMeter) close() {
	close(m.stop)
	m.wg.Wait()
}

func newBeater(cpu int) *beater {
	b := &beater{cpu: cpu, a: make([]float32, beatM*beatK), b: make([]float32, beatK*beatN), c: make([]float32, beatM*beatN),
		next: make([]int32, chaseLines*lineInts)}
	x := uint32(1)
	rnd := func() uint32 { x = x*1664525 + 1013904223; return x >> 8 }
	for _, xs := range [][]float32{b.a, b.b} {
		for i := range xs {
			xs[i] = float32(rnd())/float32(1<<24) - 0.5
		}
	}
	order := make([]int32, chaseLines)
	for i := range order {
		order[i] = int32(i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(rnd()) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for i, line := range order {
		b.next[line*lineInts] = order[(i+1)%len(order)] * lineInts
	}
	return b
}

// gemm is the arithmetic half of a beat: c = a x b in scalar float32.
func (b *beater) gemm() {
	for i := 0; i < beatM; i++ {
		ci := b.c[i*beatN : (i+1)*beatN]
		clear(ci)
		for k := 0; k < beatK; k++ {
			aik := b.a[i*beatK+k]
			bk := b.b[k*beatN : (k+1)*beatN]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// chase is the memory half: dependent loads, each from a line that is
// nowhere near the last.
func (b *beater) chase() {
	pos := b.pos
	for i := 0; i < chaseHops; i++ {
		pos = b.next[pos]
	}
	b.pos = pos
}

// once takes one beat: a GEMM to pull the operands back into cache after
// the server evicted them, then a timed GEMM and chase. The first beater
// also samples the busy time.
func (m *hostMeter) once(b *beater, sample bool) {
	b.gemm()
	start := time.Now()
	b.gemm()
	b.chase()
	end := time.Now()
	var busy []float64
	if sample {
		busy = m.busyTicks()
	}
	m.mu.Lock()
	b.at = append(b.at, end)
	b.beat = append(b.beat, ms(end.Sub(start)))
	if busy != nil {
		m.busyAt = append(m.busyAt, end)
		m.busy = append(m.busy, busy)
	}
	m.mu.Unlock()
}

// factor is the host factor around [from, to].
func (m *hostMeter) factor(from, to time.Time) float64 {
	if short := minWindow - to.Sub(from); short > 0 {
		from, to = from.Add(-short/2), to.Add(short/2)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	weights := m.weights(from, to)
	var f float64
	for k, b := range m.beaters {
		f += weights[k] * b.slowness(from, to)
	}
	return f
}

// slowness is the mean of the beats in [from, to], widened to the nearest
// minBeats when the window holds fewer, over refBeatMS. Each beat is first
// replaced by the median of itself and its two neighbours, so that one beat
// that was descheduled half-way does not count.
func (b *beater) slowness(from, to time.Time) float64 {
	n := len(b.at)
	lo := sort.Search(n, func(i int) bool { return !b.at[i].Before(from) })
	hi := sort.Search(n, func(i int) bool { return b.at[i].After(to) })
	for hi-lo < minBeats && (lo > 0 || hi < n) {
		if lo > 0 {
			lo--
		}
		if hi < n {
			hi++
		}
	}
	var sum float64
	for i := lo; i < hi; i++ {
		sum += median(b.beat[max(i-1, 0):min(i+2, n)])
	}
	return sum / float64(hi-lo) / refBeatMS
}

// weights is each beater's vCPU's share of the busy ticks between the
// samples nearest to from and to; even shares when there are too few ticks
// to tell.
func (m *hostMeter) weights(from, to time.Time) []float64 {
	w := make([]float64, len(m.beaters))
	nearest := func(t time.Time) int {
		i := sort.Search(len(m.busyAt), func(i int) bool { return !m.busyAt[i].Before(t) })
		if i > 0 && (i == len(m.busyAt) || t.Sub(m.busyAt[i-1]) < m.busyAt[i].Sub(t)) {
			i--
		}
		return i
	}
	var total float64
	if len(m.busyAt) > 0 {
		lo, hi := m.busy[nearest(from)], m.busy[nearest(to)]
		for k := range w {
			w[k] = hi[k] - lo[k]
			total += w[k]
		}
	}
	for k := range w {
		if total < minTicks {
			w[k] = 1 / float64(len(w))
		} else {
			w[k] /= total
		}
	}
	return w
}

// recent is the factor over the last minWindow, which an open loop paces
// its schedule by.
func (m *hostMeter) recent() float64 {
	now := time.Now()
	return m.factor(now.Add(-minWindow), now)
}

// busyTicks reads each measured vCPU's cumulative busy time (all but idle
// and iowait) from /proc/stat, in clock ticks; nil when it cannot.
func (m *hostMeter) busyTicks() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	out := make([]float64, len(m.beaters))
	found := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		fields := bytes.Fields(line)
		if len(fields) < 8 || !bytes.HasPrefix(fields[0], []byte("cpu")) || len(fields[0]) == 3 {
			continue
		}
		cpu, err := strconv.Atoi(string(fields[0][3:]))
		if err != nil {
			continue
		}
		for k, b := range m.beaters {
			if b.cpu != cpu {
				continue
			}
			for i, f := range fields[1:] {
				if v, err := strconv.ParseFloat(string(f), 64); err == nil && i != 3 && i != 4 {
					out[k] += v
				}
			}
			found++
		}
	}
	if found != len(m.beaters) {
		return nil
	}
	return out
}

// allowedCPUs lists the vCPUs this process may run on; nil when the kernel
// will not say.
func allowedCPUs() []int {
	var mask [16]uint64
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < int(n)*8 && i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pin binds the calling thread to one vCPU.
func pin(cpu int) error {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return errno
	}
	return nil
}
