package batching

import (
	"sync"

	"flashps/internal/workload"
)

// StepView is the minimal request description an Executor needs to run (or
// cost-model) one denoising step of a batch.
type StepView struct {
	// Req is the underlying workload request (ID, template, mask ratio).
	Req workload.Request
	// StepIndex is the request's current denoising step (for cache-load
	// dedup in the cost models).
	StepIndex int
	// RemSteps is how many denoising steps remain.
	RemSteps int
}

// Turn is one engine iteration of a worker, formed at a step boundary: the
// requests that finished their last step and now leave the engine, the
// requests that join, and the batch to step next. The Executor serves a
// turn in that order, as one replica's engine would.
type Turn struct {
	Worker int
	// Retired finished denoising at this boundary, in batch order. Each is
	// delivered to its user (serialize, postprocess) and reported through
	// Complete.
	Retired []StepView
	// Joined were admitted at this boundary, in admission order; they are
	// also members of Batch.
	Joined []StepView
	// Batch is the running batch to step Aligned times. It is empty when
	// the worker has nothing left to run; Done is then never called.
	Batch   []StepView
	Aligned int
	// Complete reports that Retired[i] was delivered (ok) or lost.
	Complete func(i int, ok bool)
	// Done reports that Batch was stepped. crashed means the replica died
	// under the batch; failed lists the members of Batch whose step
	// returned an error.
	Done func(crashed bool, failed []int)
}

// Executor is the execution seam of the Runner: it does (or cost-models)
// the work the Runner schedules and says when it is over. The simulator's
// executor is a pure cost model that answers through events on the virtual
// clock (internal/cluster), the differential-replay executor steps real
// diffusion.EditSession replicas beside that cost model (internal/replay),
// and the serving plane's executor runs the real stages on goroutines and
// answers when they return (internal/serve).
//
// The Runner calls every method with its lock held. A method returns
// promptly and calls each callback it was given exactly once, after it
// returned: from a clock event or from another goroutine.
type Executor interface {
	// TotalSteps returns how many denoising steps req computes (systems
	// like TeaCache skip steps).
	TotalSteps(req workload.Request) int
	// Prepare makes req runnable on worker (preprocessing, template cache
	// staging) and then calls ready; ok=false fails the request.
	Prepare(worker int, req workload.Request, ready func(ok bool))
	// RunTurn serves one engine iteration and returns, for each of
	// t.Joined, the time at which it enters the batch.
	RunTurn(t Turn) (joinedAt []float64)
	// Restart brings a crashed worker back and then calls up.
	Restart(worker int, up func())
}

// Fleet is the control plane in front of the workers (internal/fleet): an
// admission stage ahead of placement, the choice of replica, and a feed of
// completions for its autoscaler. Its methods must not call back into the
// Runner: Submit calls Admit and Place from any goroutine without the
// Runner's lock, a crash re-placement calls Place with it held, and
// Completed always runs under it.
type Fleet interface {
	// Admit decides at clock time now whether req enters the system;
	// deadline is the request's own deadline in seconds (0: none).
	Admit(req workload.Request, deadline, now float64) (ok bool, reason string)
	// Place picks the worker for req among those alive, recording the
	// placement through core; ok=false means no replica can take work.
	Place(core *Core, req workload.Request, item Item, views []WorkerView, alive []bool) (worker int, ok bool)
	// Completed feeds one completed request to the autoscaler's window.
	Completed(stat RequestStat)
}

// Observer receives the Runner's occupancy signals and every request's
// terminal state — the Runner itself keeps no record of finished requests,
// so a long-lived server's memory does not grow with them. It is called
// with the Runner's lock held; a nil Observer is free.
type Observer interface {
	// QueueDepth reports a worker's ready-queue depth after it changed.
	QueueDepth(worker, depth int)
	// Outstanding reports how many requests a worker holds — placed on it
	// and not yet finished — after that changed.
	Outstanding(worker, n int)
	// BatchStep reports the running-batch size of one executed step.
	BatchStep(size int)
	// RequestDone reports a request's terminal state, once per submitted
	// request, with its timing breakdown in the driving clock's seconds.
	RequestDone(stat RequestStat)
}

// Outcome is a request's terminal state. Every submitted request reaches
// exactly one.
type Outcome int

const (
	// Completed requests were denoised, postprocessed and delivered.
	Completed Outcome = iota
	// Shed requests were sacrificed under overload for smaller-mask work.
	Shed
	// Evicted requests were abandoned by their caller (deadline, cancel)
	// and left at the next stage or step boundary.
	Evicted
	// Rejected requests never got a worker: admission, no live replica, or
	// a full queue with nothing larger to shed.
	Rejected
	// Failed requests hit an error in a stage, or outlived their crash
	// retry budget.
	Failed
)

// Reasons qualifying an Outcome in RequestStat.Reason.
const (
	ReasonDeadline   = "deadline"          // Evicted
	ReasonCanceled   = "canceled"          // Evicted
	ReasonOverloaded = "overloaded"        // Rejected: queue full, nothing larger to shed
	ReasonNoReplica  = "no_live_replicas"  // Rejected on arrival, Failed on a retry
	ReasonPrepare    = "prepare"           // Failed
	ReasonStep       = "step"              // Failed
	ReasonFinish     = "finish"            // Failed
	ReasonRetries    = "retries_exhausted" // Failed
)

// Label returns the flashps_requests_total outcome label of a terminal
// state.
func (s RequestStat) Label() string {
	switch s.Outcome {
	case Completed:
		return "ok"
	case Shed:
		return "shed"
	case Evicted:
		return s.Reason
	case Rejected:
		return "rejected"
	default:
		return "error"
	}
}

// RequestStat is the per-request outcome of a run. All times are in the
// driving clock's seconds; Admit, Finish and Complete are zero for stages
// the request never reached.
type RequestStat struct {
	ID        int
	Template  uint64
	MaskRatio float64
	// Worker is the replica that last held the request (-1: never placed).
	Worker        int
	Arrival       float64
	Admit         float64
	Finish        float64
	Complete      float64
	Interruptions int
	Outcome       Outcome
	// Reason qualifies a non-Completed outcome (the Reason constants, or
	// the Fleet's admission reason for a Rejected request).
	Reason string
	// Retries counts re-executions on another replica after worker crashes.
	Retries int
}

// Latency returns the end-to-end request latency.
func (s RequestStat) Latency() float64 { return s.Complete - s.Arrival }

// QueueTime returns the time from arrival to joining a running batch.
func (s RequestStat) QueueTime() float64 { return s.Admit - s.Arrival }

// InferenceTime returns the time spent in denoising.
func (s RequestStat) InferenceTime() float64 { return s.Finish - s.Admit }

// RunnerConfig parameterizes a clock-driven run of the batching core.
type RunnerConfig struct {
	// Workers is the number of replicas.
	Workers int
	// CostSteps is the step count Place's Algorithm-2 cost uses for the
	// incoming request (the profile's denoising step count).
	CostSteps int
	// Core makes every placement, admission, shedding and retry decision.
	Core *Core
	// Clock drives time (virtual or wall).
	Clock Clock
	// Exec performs (or models) the scheduled work.
	Exec Executor
	// Obs optionally receives occupancy signals and terminal states.
	Obs Observer
	// Fleet fronts the workers with admission and routing.
	Fleet Fleet
}

// Runner is the one place a request moves ready queue → running batch →
// step → retire, for every driver: requests arrive via Submit, are placed
// by the Core, prepared by the Executor, and served under the Core's
// batching discipline; overload shedding, deadline and cancel eviction,
// and crash rescue are transitions of the same state machine, scheduled on
// the same Clock. It is safe for concurrent use: Submit, Abort and the
// Executor's callbacks may come from any goroutine.
type Runner struct {
	cfg RunnerConfig

	mu      sync.Mutex
	stopped bool
	workers []*runnerWorker
	live    map[int]*runnerReq // submitted, no terminal state yet

	batchSizeSum int
	batchSteps   int
}

// reqStage says which structure holds a live request.
type reqStage int

const (
	stagePreparing reqStage = iota // Executor.Prepare in flight
	stageQueued                    // in its worker's ready queue
	stageRunning                   // in its worker's running batch
	stageFinishing                 // denoised, being delivered
	stageBackoff                   // lost to a crash, waiting to be re-placed
)

// runnerReq is a request's in-run state.
type runnerReq struct {
	workload.Request
	w             *runnerWorker
	stage         reqStage
	remSteps      int
	totalSteps    int
	admit         float64 // joined a running batch
	finish        float64 // denoising complete
	complete      float64 // postprocessing complete (user receives image)
	interruptions int
	retries       int
	// terminal is set once the request's outcome is recorded. A shed or
	// evicted request may still sit in a stage; it leaves at the stage's
	// next boundary.
	terminal bool
}

// runnerWorker is one replica's state machine.
type runnerWorker struct {
	id          int
	r           *Runner
	alive       bool         // false between a crash and the restart
	queue       []*runnerReq // ready, waiting to join a batch
	running     []*runnerReq
	busy        bool
	busySince   float64
	draining    int          // static: retired requests not yet delivered
	outstanding []*runnerReq // assigned and not finished, in placement order
	busyTime    float64      // accumulated engine-occupied seconds
}

// NewRunner builds the state machine.
func NewRunner(cfg RunnerConfig) *Runner {
	r := &Runner{cfg: cfg, live: make(map[int]*runnerReq)}
	for i := 0; i < cfg.Workers; i++ {
		r.workers = append(r.workers, &runnerWorker{id: i, r: r, alive: true})
	}
	return r
}

// enter runs fn as one transition of the state machine; after Stop it
// drops it.
func (r *Runner) enter(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.stopped {
		fn()
	}
}

// Stop ends the run: later submissions are refused and pending clock
// events and Executor callbacks become no-ops.
func (r *Runner) Stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
}

// Pending returns the number of submitted requests without a terminal
// state.
func (r *Runner) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// WorkerBusy returns each worker's accumulated busy time.
func (r *Runner) WorkerBusy() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, len(r.workers))
	for i, w := range r.workers {
		out[i] = w.busyTime
	}
	return out
}

// BatchOccupancy returns the running-batch occupancy sums across all
// executed denoising steps (static batches count each aligned step).
func (r *Runner) BatchOccupancy() (sizeSum, steps int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.batchSizeSum, r.batchSteps
}

// OutstandingCounts snapshots every worker's assigned-and-unfinished
// request count (the queue depth routers and health checks see).
func (r *Runner) OutstandingCounts() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.workers))
	for i, w := range r.workers {
		out[i] = len(w.outstanding)
	}
	return out
}

// Alive snapshots every worker's liveness.
func (r *Runner) Alive() []bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]bool, len(r.workers))
	for i, w := range r.workers {
		out[i] = w.alive
	}
	return out
}

// Submit runs a new request through admission, placement and the overload
// policy, and starts preparing it on its worker; a request turned away
// gets its Rejected state at once. deadline, when positive, evicts the
// request that many seconds from now unless it completed. Virtual-time
// drivers call Submit from a clock event at the request's arrival time.
func (r *Runner) Submit(req workload.Request, deadline float64) {
	q := &runnerReq{Request: req}
	// Admission and placement work on a snapshot, without the lock:
	// Algorithm 2's cost estimate is the slow part of a submission, and
	// the workers' step boundaries must not wait for it.
	r.mu.Lock()
	views, alive := r.snapshot()
	r.mu.Unlock()
	admitted, reason := r.cfg.Fleet.Admit(req, deadline, r.cfg.Clock.Now())
	wid, placed := 0, false
	if admitted {
		wid, placed = r.route(q, views, alive)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.stopped:
		return
	case !admitted:
		r.terminal(q, Rejected, reason)
		return
	case !placed:
		r.terminal(q, Rejected, ReasonNoReplica)
		return
	}
	w := r.workers[wid]
	q.w = w
	r.live[req.ID] = q
	// Overload: shed the largest-mask outstanding request on this replica
	// if it is strictly larger than the newcomer, which then joins over
	// the limit; otherwise turn the newcomer away.
	if max := r.cfg.Core.MaxQueue(); max > 0 && len(w.outstanding) >= max {
		var cands []Item
		var victims []*runnerReq
		for _, o := range w.outstanding {
			if o.stage != stageFinishing { // a static batch's finished work holds its slot
				cands = append(cands, Item{ID: uint64(o.ID), MaskRatio: o.MaskRatio})
				victims = append(victims, o)
			}
		}
		v := r.cfg.Core.ShedVictim(w.id, cands, r.item(q))
		if v < 0 {
			r.terminal(q, Rejected, ReasonOverloaded)
			return
		}
		r.drop(victims[v], Shed, "")
	}
	if deadline > 0 {
		id := req.ID
		r.cfg.Clock.After(deadline, func() { r.Abort(id, ReasonDeadline) })
	}
	r.start(q, w)
}

// Abort evicts a request its caller has given up on (ReasonDeadline or
// ReasonCanceled): the Evicted state is reported at once and the request
// leaves its stage at the next boundary. A request that already has its
// terminal state is left alone.
func (r *Runner) Abort(id int, reason string) {
	r.enter(func() {
		if q := r.live[id]; q != nil {
			r.drop(q, Evicted, reason)
		}
	})
}

func (r *Runner) item(q *runnerReq) Item {
	return Item{ID: uint64(q.ID), MaskRatio: q.MaskRatio, Steps: r.cfg.CostSteps}
}

// snapshot is the scheduler's view of every worker: its outstanding load
// in placement order, and whether it is alive.
func (r *Runner) snapshot() ([]WorkerView, []bool) {
	// A static batch is one opaque engine call: the load balancer sees no
	// step progress, and the batch's slots stay taken, until it returns.
	static := r.cfg.Core.Discipline() == Static
	views := make([]WorkerView, len(r.workers))
	alive := make([]bool, len(r.workers))
	for i, w := range r.workers {
		v := WorkerView{
			Ratios:   make([]float64, 0, len(w.outstanding)),
			RemSteps: make([]int, 0, len(w.outstanding)),
		}
		for _, o := range w.outstanding {
			rem := o.remSteps
			if static {
				rem = o.totalSteps
			}
			v.Ratios = append(v.Ratios, o.MaskRatio)
			v.RemSteps = append(v.RemSteps, rem)
		}
		views[i], alive[i] = v, w.alive
	}
	return views, alive
}

// route has the Fleet pick q's worker among the live ones; ok=false means
// no replica can take work.
func (r *Runner) route(q *runnerReq, views []WorkerView, alive []bool) (worker int, ok bool) {
	return r.cfg.Fleet.Place(r.cfg.Core, q.Request, r.item(q), views, alive)
}

// start registers q with w and has the Executor prepare it.
func (r *Runner) start(q *runnerReq, w *runnerWorker) {
	steps := r.cfg.Exec.TotalSteps(q.Request)
	q.w, q.stage, q.remSteps, q.totalSteps = w, stagePreparing, steps, steps
	w.outstanding = append(w.outstanding, q)
	r.observeOutstanding(w)
	r.cfg.Exec.Prepare(w.id, q.Request, func(ok bool) {
		r.enter(func() { r.ready(q, ok) })
	})
}

// ready is Prepare's completion: the request joins its worker's queue.
func (r *Runner) ready(q *runnerReq, ok bool) {
	w := q.w
	switch {
	case q.terminal: // evicted or shed while preparing
	case !ok:
		w.release(q)
		r.terminal(q, Failed, ReasonPrepare)
	default:
		q.stage = stageQueued
		w.queue = append(w.queue, q)
		r.observeQueue(w)
		w.kick()
	}
}

// drop records a request's early terminal state (shed or evicted) and
// takes it out of the scheduler's view. A queued request leaves at once;
// one in a stage leaves at that stage's next boundary.
func (r *Runner) drop(q *runnerReq, outcome Outcome, reason string) {
	r.terminal(q, outcome, reason)
	w := q.w
	switch q.stage {
	case stageQueued:
		w.queue = without(w.queue, q)
		r.observeQueue(w)
		w.release(q)
	case stagePreparing, stageRunning:
		w.release(q)
	}
}

// terminal records q's outcome, once.
func (r *Runner) terminal(q *runnerReq, outcome Outcome, reason string) {
	q.terminal = true
	delete(r.live, q.ID)
	stat := RequestStat{
		ID: q.ID, Template: q.Template, MaskRatio: q.MaskRatio, Worker: -1,
		Arrival: q.Arrival, Admit: q.admit, Finish: q.finish,
		Complete: q.complete, Interruptions: q.interruptions,
		Outcome: outcome, Reason: reason, Retries: q.retries,
	}
	if q.w != nil {
		stat.Worker = q.w.id
	}
	if outcome == Completed {
		r.cfg.Fleet.Completed(stat)
	}
	if r.cfg.Obs != nil {
		r.cfg.Obs.RequestDone(stat)
	}
}

func (r *Runner) observeQueue(w *runnerWorker) {
	if r.cfg.Obs != nil {
		r.cfg.Obs.QueueDepth(w.id, len(w.queue))
	}
}

func (r *Runner) observeOutstanding(w *runnerWorker) {
	if r.cfg.Obs != nil {
		r.cfg.Obs.Outstanding(w.id, len(w.outstanding))
	}
}

// release takes q out of the load-balancer's outstanding view.
func (w *runnerWorker) release(q *runnerReq) {
	if rest := without(w.outstanding, q); len(rest) != len(w.outstanding) {
		w.outstanding = rest
		w.r.observeOutstanding(w)
	}
}

// without removes q from list, keeping the order of the rest.
func without(list []*runnerReq, q *runnerReq) []*runnerReq {
	for i, o := range list {
		if o == q {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// kick starts the worker if it is alive, idle and has ready requests.
func (w *runnerWorker) kick() {
	if w.busy || !w.alive || len(w.queue) == 0 {
		return
	}
	w.busy = true
	w.busySince = w.r.cfg.Clock.Now()
	w.boundary()
}

func (w *runnerWorker) idle() {
	w.busy = false
	w.busyTime += w.r.cfg.Clock.Now() - w.busySince
}

// boundary is a step boundary of the worker's engine, the only point at
// which the running batch changes: evicted and shed requests drop out,
// finished ones retire, ready ones are admitted as the discipline allows,
// and the next turn goes to the Executor.
func (w *runnerWorker) boundary() {
	r := w.r
	disc := r.cfg.Core.Discipline()
	now := r.cfg.Clock.Now()

	var still, retired []*runnerReq
	for _, q := range w.running {
		switch {
		case q.terminal: // evicted or shed: out at this boundary
		case q.remSteps > 0:
			still = append(still, q)
		default:
			q.finish, q.stage = now, stageFinishing
			if disc != Static {
				w.release(q)
			}
			retired = append(retired, q)
			if disc == StrawmanCB {
				// Postprocessing blocks the GPU stream and interrupts every
				// other in-flight request (Fig 10-Top).
				for _, other := range w.running {
					if other != q && other.remSteps > 0 {
						other.interruptions++
					}
				}
			}
		}
	}
	w.running = still

	if disc == Static && len(retired) > 0 {
		// A static batch is over only when every request in it has been
		// delivered: the next one forms then, not now.
		w.draining = len(retired)
		w.turn(retired, nil, 0)
		return
	}

	n := r.cfg.Core.Admit(w.id, len(w.running), w.queueItems())
	joined := append([]*runnerReq(nil), w.queue[:n]...)
	w.queue = w.queue[n:]
	for _, q := range joined {
		if disc == StrawmanCB {
			// Preprocessing on the GPU process interrupts the batch.
			for _, other := range w.running {
				other.interruptions++
			}
		}
		q.stage = stageRunning
		w.running = append(w.running, q)
	}
	if n > 0 {
		r.observeQueue(w)
	}

	// Continuous disciplines step once per turn; a static batch runs all
	// its steps in one, so a cost model prices them as one multiplication.
	aligned := 1
	if disc == Static {
		for _, q := range w.running {
			if q.remSteps > aligned {
				aligned = q.remSteps
			}
		}
	}
	if len(w.running) > 0 || len(retired) > 0 {
		for i, at := range w.turn(retired, joined, aligned) {
			joined[i].admit = at
		}
	}
	if len(w.running) == 0 {
		w.idle()
		return
	}
	r.batchSizeSum += len(w.running) * aligned
	r.batchSteps += aligned
	if r.cfg.Obs != nil {
		for i := 0; i < aligned; i++ {
			r.cfg.Obs.BatchStep(len(w.running))
		}
	}
}

// queueItems snapshots the ready queue for an admission decision.
func (w *runnerWorker) queueItems() []Item {
	items := make([]Item, len(w.queue))
	for i, q := range w.queue {
		items[i] = Item{ID: uint64(q.ID), MaskRatio: q.MaskRatio, Steps: q.remSteps}
	}
	return items
}

// turn hands one engine iteration to the Executor: deliver retired, then
// step the running batch aligned times (aligned 0: nothing to step).
func (w *runnerWorker) turn(retired, joined []*runnerReq, aligned int) []float64 {
	r := w.r
	t := Turn{
		Worker: w.id, Retired: stepViews(retired), Joined: stepViews(joined),
		Aligned: aligned,
		Complete: func(i int, ok bool) {
			r.enter(func() { w.delivered(retired[i], ok) })
		},
	}
	if aligned > 0 && len(w.running) > 0 {
		batch := w.running
		t.Batch = stepViews(batch)
		t.Done = func(crashed bool, failed []int) {
			r.enter(func() { w.stepped(batch, aligned, crashed, failed) })
		}
	}
	return r.cfg.Exec.RunTurn(t)
}

// stepped is a turn's completion: the batch advanced aligned steps, or
// the replica crashed under it.
func (w *runnerWorker) stepped(batch []*runnerReq, aligned int, crashed bool, failed []int) {
	if crashed {
		w.crash()
		return
	}
	for _, i := range failed {
		if q := batch[i]; !q.terminal {
			w.release(q)
			w.r.terminal(q, Failed, ReasonStep)
		}
	}
	for _, q := range w.running {
		if q.remSteps -= aligned; q.remSteps < 0 {
			q.remSteps = 0
		}
	}
	w.boundary()
}

// delivered is a retired request's completion: the user has the image.
func (w *runnerWorker) delivered(q *runnerReq, ok bool) {
	r := w.r
	w.release(q)
	switch {
	case q.terminal: // evicted while being delivered
	case ok:
		q.complete = r.cfg.Clock.Now()
		r.terminal(q, Completed, "")
	default:
		r.terminal(q, Failed, ReasonFinish)
	}
	if w.draining > 0 {
		if w.draining--; w.draining == 0 {
			w.idle()
			w.kick()
		}
	}
}

// crash handles a replica dying under its running batch: the worker is
// dead to placement until the Executor has restarted it, and each request
// of the batch is re-placed on a live replica after the Core's capped
// backoff, or fails when its retry budget is spent. Requests still queued
// on the worker wait for the restart.
func (w *runnerWorker) crash() {
	r := w.r
	w.alive = false
	w.idle()
	batch := w.running
	w.running = nil
	for _, q := range batch {
		q := q
		if q.terminal {
			continue
		}
		w.release(q)
		delay, ok := r.cfg.Core.Retry(q.retries + 1)
		if !ok {
			r.terminal(q, Failed, ReasonRetries)
			continue
		}
		q.stage = stageBackoff
		r.cfg.Clock.After(delay, func() { r.enter(func() { r.replace(q) }) })
	}
	r.cfg.Exec.Restart(w.id, func() {
		r.enter(func() {
			w.alive = true
			w.kick()
		})
	})
}

// replace re-enters a crash-rescued request on a live replica; the
// deterministic pipeline re-runs from preprocessing.
func (r *Runner) replace(q *runnerReq) {
	if q.terminal { // evicted during the backoff
		return
	}
	views, alive := r.snapshot()
	wid, ok := r.route(q, views, alive)
	if !ok {
		r.terminal(q, Failed, ReasonNoReplica)
		return
	}
	q.retries++
	q.admit, q.finish = 0, 0
	r.start(q, r.workers[wid])
}

func stepViews(batch []*runnerReq) []StepView {
	views := make([]StepView, len(batch))
	for i, q := range batch {
		views[i] = StepView{
			Req:       q.Request,
			StepIndex: q.totalSteps - q.remSteps,
			RemSteps:  q.remSteps,
		}
	}
	return views
}
