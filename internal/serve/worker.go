package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"flashps/internal/batching"
	"flashps/internal/diffusion"
	"flashps/internal/faults"
	"flashps/internal/img"
	"flashps/internal/obs"
	"flashps/internal/tensor"
	"flashps/internal/workload"
)

// pool runs tasks on a fixed set of goroutines in submission order. The
// serving plane has one per CPU stage (preprocessing, postprocessing) and,
// with a single goroutine, one per engine replica. run never blocks: the
// batching.Runner hands work over with its lock held.
type pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	tasks  []func()
	closed bool
}

func newPool() *pool {
	p := &pool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// start launches n goroutines serving the pool until close.
func (p *pool) start(n int, wg *sync.WaitGroup) {
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p.mu.Lock()
				for len(p.tasks) == 0 && !p.closed {
					p.cond.Wait()
				}
				if p.closed {
					p.mu.Unlock()
					return
				}
				task := p.tasks[0]
				p.tasks[0] = nil
				p.tasks = p.tasks[1:]
				p.mu.Unlock()
				task()
			}
		}()
	}
}

func (p *pool) run(task func()) {
	p.mu.Lock()
	p.tasks = append(p.tasks, task)
	p.mu.Unlock()
	p.cond.Signal()
}

// close stops the goroutines after their current task; queued tasks are
// dropped.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// worker is one engine replica: its numeric engine, the single goroutine
// its turns run on, and its replica-local staged template set. Which
// requests it runs, and when, is the batching.Runner's business.
type worker struct {
	id   int
	eng  *diffusion.Engine
	loop *pool

	// Replica-local staged template set (fleet mode, Config.StagedTemplates
	// > 0): an LRU of template IDs this replica has staged, least-recent
	// first, plus the checksum recorded during each staging pass.
	stageMu  sync.Mutex
	staged   []uint64
	stageSum map[uint64]uint32
}

// wallExecutor is the serving plane's batching.Executor: the stages are
// the real ones, they take the time they take, and each answers the Runner
// when it returns. Preprocessing and postprocessing run on the CPU pools;
// a replica's turns run one at a time on its own goroutine, so two
// replicas step concurrently.
type wallExecutor struct{ s *Server }

// TotalSteps: a session takes one Step call per denoising step of the
// schedule, whatever a TeaCache or step-policy session skips inside them.
func (e wallExecutor) TotalSteps(workload.Request) int { return e.s.cfg.Model.Steps }

// Prepare runs the preprocessing stage on the CPU pool: rasterize the
// mask, fetch the template cache and open the edit session on the
// worker's engine. A crash-rescued request comes through here again and
// re-runs its deterministic seed-driven pipeline from the start.
func (e wallExecutor) Prepare(worker int, req workload.Request, ready func(ok bool)) {
	s := e.s
	j := s.job(req.ID)
	if j.worker != nil {
		s.obs.retries.Inc() // re-placed after a crash
	}
	j.worker, j.session = s.workers[worker], nil
	j.degraded, j.degradedReason = false, ""
	s.pre.run(func() {
		if s.abandoned(j) {
			ready(false)
			return
		}
		if d := s.faults.Delay(faults.PreStage); d > 0 {
			sleepCtx(j.ctx, d)
		}
		t0 := time.Now()
		err := s.preprocess(j)
		pre := time.Since(t0)
		s.obs.span(j.id, stagePreprocess, j.worker.id, t0, pre,
			obs.Arg("mask_ratio", j.ratio))
		if err != nil {
			j.err = err
		} else {
			s.obs.cost(obs.CostSample{Stage: obs.CostStagePreprocess, Units: 1,
				MaskSum: j.ratio, Seconds: pre.Seconds()})
		}
		ready(err == nil)
	})
}

// RunTurn queues one engine iteration on the replica's goroutine: hand the
// retired sessions' latents to postprocessing, then step the batch.
// Requests join the batch now, at the boundary.
//
// A panic anywhere in the iteration — a bug in a kernel, in serialization
// or in strawman-cb's inline decode, or the injected faults.WorkerCrash —
// is the replica crashing, and stays inside it: the retired requests it
// had not handed on yet fail, and the Runner rescues the batch and
// restarts the replica.
func (e wallExecutor) RunTurn(t batching.Turn) []float64 {
	s := e.s
	w := s.workers[t.Worker]
	retired, batch := e.jobs(t.Retired), e.jobs(t.Batch)
	joinedAt := make([]float64, len(t.Joined))
	now := s.obs.wall.Now()
	for i := range joinedAt {
		joinedAt[i] = now
	}
	w.loop.run(func() {
		handed := 0 // retired requests handed on to postprocessing
		var failed []int
		cause := func() (cause interface{}) {
			defer func() { cause = recover() }()
			for ; handed < len(retired); handed++ {
				i := handed
				e.deliver(w, retired[i], func(ok bool) { t.Complete(i, ok) })
			}
			if len(batch) > 0 {
				failed = e.step(w, batch, t.Aligned)
			}
			return nil
		}()
		crashed := cause != nil
		if crashed {
			s.obs.plane.RecordFlight("worker_crash", 0, w.id,
				fmt.Sprintf("engine loop crashed: %v", cause))
			for i := handed; i < len(retired); i++ {
				retired[i].err = apiErrorf(CodeInternal, true,
					"worker %d crashed delivering the result", w.id)
				t.Complete(i, false)
			}
		}
		if len(batch) == 0 {
			return
		}
		if crashed {
			s.obs.workerRestarts.Inc()
		}
		// The Runner forms the next turn inside Done: its duration is the
		// batch-organize overhead of §6.6.
		t0 := time.Now()
		t.Done(crashed, failed)
		organize := time.Since(t0).Seconds()
		s.obs.organize.Observe(s.obs.wall.Now(), organize)
		s.obs.cost(obs.CostSample{Stage: obs.CostStageOrganize, Units: 1,
			Batch: len(batch), Seconds: organize})
	})
	return joinedAt
}

// jobs resolves a turn's requests, none of which has a terminal state yet,
// to the plane's jobs.
func (e wallExecutor) jobs(views []batching.StepView) []*job {
	out := make([]*job, len(views))
	for i, v := range views {
		out[i] = e.s.job(v.Req.ID)
	}
	return out
}

// step runs aligned denoising steps of the batch, each one stacked step of
// the engine over every member still running (diffusion.Engine.StepBatch),
// and returns the members whose step failed. Abandoned jobs (expired
// deadline, canceled client, shed) stop burning steps at once; the Runner
// drops them at the boundary.
func (e wallExecutor) step(w *worker, batch []*job, aligned int) (failed []int) {
	s := e.s
	if s.faults.Fire(faults.WorkerCrash(w.id)) {
		panic("faults: injected worker crash")
	}
	members := make([]int, 0, len(batch))
	sessions := make([]*diffusion.EditSession, 0, len(batch))
	for k := 0; k < aligned; k++ {
		members, sessions = members[:0], sessions[:0]
		for i, j := range batch {
			if j.err != nil || j.aborted() || j.session.Done() {
				continue
			}
			if d := s.faults.Delay(faults.StepStage); d > 0 {
				time.Sleep(d)
			}
			members, sessions = append(members, i), append(sessions, j.session)
		}
		if len(members) == 0 {
			break
		}
		ts := time.Now()
		errs := w.eng.StepBatch(sessions)
		stepDur := time.Since(ts)
		lanes := 0
		for _, sess := range sessions {
			lanes += sess.LastStepLanes()
		}
		// One cost sample per batch step, its features summed over the
		// members. Each session reports what its step actually executed:
		// computed blocks carry real FLOPs, policy-reused blocks and
		// TeaCache-skipped steps carry none. The split rides on the sample
		// so calibration can exclude (or featureize) approximated steps
		// instead of fitting an inflated law.
		sample := obs.CostSample{Stage: obs.CostStageDenoiseStep,
			Units: len(members), Batch: len(members), Seconds: stepDur.Seconds()}
		args := obs.Arg("batch", float64(len(members))).And("lanes", float64(lanes))
		for n, i := range members {
			j := batch[i]
			// The members ran as one computation: each one's span is the
			// batch step's interval. A step that failed left its session
			// where it was; one that ran moved it on by one.
			var stepErr error
			if errs != nil {
				stepErr = errs[n]
			}
			stepIdx := s.cfg.Model.Steps - j.session.RemainingSteps()
			if stepErr == nil {
				stepIdx--
			}
			s.obs.spanAt(j.id, stageDenoiseStep, uint64(stepIdx), w.id, ts, stepDur, args)
			if stepErr != nil {
				j.err = asAPIError(stepErr)
				failed = append(failed, i)
				continue
			}
			computed, reused := j.session.LastStepBlocks()
			sample.MaskSum += j.ratio
			sample.FLOPs += s.stepFLOPs(j, computed)
			sample.BlocksComputed += computed
			sample.BlocksReused += reused
		}
		s.obs.cost(sample)
	}
	return failed
}

// deliver takes a finished session off the engine: serialize the latent
// (measured §6.6 overhead) and hand it to the postprocessing pool — the
// engine goroutine never decodes, except under strawman-cb, whose defect
// (Fig 10-Top) is exactly that postprocessing blocks the stream.
func (e wallExecutor) deliver(w *worker, j *job, complete func(ok bool)) {
	s := e.s
	if s.abandoned(j) {
		complete(false)
		return
	}
	ts := time.Now()
	j.latentBytes = serializeLatent(j.session.Latent())
	serialize := time.Since(ts)
	s.obs.span(j.id, stageSerialize, w.id, ts, serialize, obs.SpanArgs{})
	s.obs.cost(obs.CostSample{Stage: obs.CostStageSerialize,
		Units: 1, Bytes: float64(len(j.latentBytes)),
		Seconds: serialize.Seconds()})
	j.handoff = time.Now()
	post := func() { complete(e.postprocess(j)) }
	if s.core.Discipline() == batching.StrawmanCB {
		post()
		return
	}
	s.post.run(post)
}

// postprocess decodes a finished job's latent into an image (and PNG when
// requested) and leaves the result on the job for the response.
func (e wallExecutor) postprocess(j *job) bool {
	s := e.s
	if s.abandoned(j) {
		// The waiter is gone (deadline/cancel after denoising); skip the
		// decode entirely.
		return false
	}
	if d := s.faults.Delay(faults.PostStage); d > 0 {
		sleepCtx(j.ctx, d)
	}
	post := time.Now()
	handoff := post.Sub(j.handoff)
	s.obs.span(j.id, stageHandoff, j.worker.id, j.handoff, handoff, obs.SpanArgs{})
	s.obs.cost(obs.CostSample{Stage: obs.CostStageHandoff, Units: 1,
		Seconds: handoff.Seconds()})
	res, err := j.session.Result()
	if err == nil && j.api.ReturnImage {
		j.png, err = img.EncodePNG(res.Image)
	}
	s.obs.cost(obs.CostSample{Stage: obs.CostStagePostprocess, Units: 1,
		Seconds: time.Since(post).Seconds()})
	if err != nil {
		j.err = asAPIError(err)
		return false
	}
	j.stepsComputed = res.StepsComputed
	return true
}

// Restart brings a crashed replica back after Config.WorkerRestartDelay.
// Its goroutine survived the recovered panic, so coming back is only the
// Runner routing to it again.
func (e wallExecutor) Restart(_ int, up func()) {
	e.s.obs.wall.After(e.s.cfg.WorkerRestartDelay.Seconds(), up)
}

// ensureStaged makes a template replica-local: a hit on this worker's
// staged LRU just refreshes recency, while a miss pays the staging pass —
// a full read of the cache entry's tensors with a CRC32 checksum, the cost
// a real multi-process replica would pay copying the template into device
// memory. The entry itself keeps serving from the shared store (this is a
// one-process plane), so staging models the transfer without duplicating
// the bytes. Returns whether a staging pass ran and the bytes it covered.
// Evictions beyond capacity drop the least-recent template, so a template
// bouncing between replicas re-pays the pass — exactly the cost
// template-affinity routing avoids.
func (w *worker) ensureStaged(tc *diffusion.TemplateCache, capacity int) (bool, int64) {
	w.stageMu.Lock()
	for i, id := range w.staged {
		if id == tc.TemplateID {
			copy(w.staged[i:], w.staged[i+1:])
			w.staged[len(w.staged)-1] = id
			w.stageMu.Unlock()
			return false, 0
		}
	}
	w.stageMu.Unlock()

	// The pass runs outside the lock (it is the slow part and touches only
	// the immutable cache entry); a concurrent duplicate for the same
	// template is resolved on re-check below.
	bytes, sum := stagePass(tc)

	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	for _, id := range w.staged {
		if id == tc.TemplateID {
			return false, 0 // raced with another staging of the same template
		}
	}
	if w.stageSum == nil {
		w.stageSum = make(map[uint64]uint32)
	}
	w.staged = append(w.staged, tc.TemplateID)
	w.stageSum[tc.TemplateID] = sum
	for len(w.staged) > capacity {
		delete(w.stageSum, w.staged[0])
		w.staged = w.staged[1:]
	}
	return true, bytes
}

// stagedTemplates returns the replica's staged template IDs, sorted.
func (w *worker) stagedTemplates() []uint64 {
	w.stageMu.Lock()
	out := append([]uint64(nil), w.staged...)
	w.stageMu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// stagePass reads every tensor of a template cache entry — its Y cache, or
// a derived form's trajectory and K/V (diffusion.TemplateCache.Tensors) —
// returning the byte count and a CRC32 (IEEE) checksum over the traversal.
func stagePass(tc *diffusion.TemplateCache) (int64, uint32) {
	crc := crc32.NewIEEE()
	var total int64
	// Staging for a host whose float storage is not the checksum's byte
	// order; elsewhere the tensors' own bytes are summed where they lie.
	var buf []byte
	tc.Tensors(func(data []float32) {
		total += int64(4 * len(data))
		if b := tensor.LEBytes(data); b != nil {
			crc.Write(b)
			return
		}
		for len(data) > 0 {
			n := min(len(data), 1<<14)
			buf = buf[:0]
			for _, v := range data[:n] {
				buf = binary.LittleEndian.AppendUint32(buf, mathFloat32bits(v))
			}
			crc.Write(buf)
			data = data[n:]
		}
	})
	return total, crc.Sum32()
}

// serializeLatent encodes a latent matrix into the wire format used
// between the engine process and the postprocess workers (the paper's
// §6.6 serialization step).
func serializeLatent(m *tensor.Matrix) []byte {
	buf := make([]byte, 8+4*len(m.Data))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(m.R))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(m.C))
	for i, v := range m.Data {
		binary.LittleEndian.PutUint32(buf[8+4*i:], mathFloat32bits(v))
	}
	return buf
}

// deserializeLatent reverses serializeLatent. It rejects malformed or
// truncated buffers (including dimension fields that would overflow).
func deserializeLatent(buf []byte) *tensor.Matrix {
	if len(buf) < 8 {
		return nil
	}
	r := int(binary.LittleEndian.Uint32(buf[0:4]))
	c := int(binary.LittleEndian.Uint32(buf[4:8]))
	const maxDim = 1 << 20
	if r <= 0 || c <= 0 || r > maxDim || c > maxDim {
		return nil
	}
	if len(buf)-8 < 4*r*c {
		return nil
	}
	m := tensor.New(r, c)
	for i := range m.Data {
		m.Data[i] = mathFloat32frombits(binary.LittleEndian.Uint32(buf[8+4*i:]))
	}
	return m
}
