package diffusion

import (
	"fmt"

	"flashps/internal/img"
	"flashps/internal/model"
	"flashps/internal/tensor"
)

// EditSession is an in-flight edit whose denoising steps are advanced one
// at a time by the caller. It is the unit of FlashPS's continuous batching
// (§4.3): the serving plane holds a batch of sessions, advances each by one
// step per engine iteration, admits new sessions at step boundaries, and
// retires sessions the moment they finish.
type EditSession struct {
	engine    *Engine
	req       EditRequest
	x         *tensor.Matrix
	xNext     *tensor.Matrix // ping-pong partner of x across steps
	t         int            // next step to execute (counts down to -1)
	cond      []float32
	maskedIdx []int
	modes     []model.ExecMode
	// maskedOut: the step predicts and updates the masked rows alone. The
	// other rows of the next latent are the template trajectory's (traj, for
	// the cached modes) or stay as they are (the naive baseline).
	maskedOut bool
	traj      []*tensor.Matrix
	derived   *derivedKV // the template's, as of BeginEdit; nil = compute K/V
	kvBlocks  [2][]bool  // per guidance pass: blocks given their unmasked K/V (derived or recorded)

	// TeaCache state.
	teaThreshold float64
	teaLastEps   *tensor.Matrix
	teaLastT     int
	teaAccum     float64

	// Adaptive step-policy state (nil/empty when the policy is off). The
	// residual caches are per-guidance-pass: under classifier-free
	// guidance the conditional and unconditional trajectories drift
	// differently, so each keeps its own per-block residuals.
	policyName string
	policy     PolicyState
	reusePlan  []bool
	rcCond     *model.ReuseCache
	rcUncond   *model.ReuseCache

	stepsComputed int
	passes        int // model forward passes per computed step (1, or 2 under guidance)
	lane0, nLanes int // the current step's lanes within its batch step's

	lastBlocksComputed  int
	lastBlocksReused    int
	lastBlocksKV        int
	totalBlocksComputed int
	totalBlocksReused   int
}

// BeginEdit validates the request and returns a session positioned before
// the first denoising step. The same validation rules as Edit apply.
func (e *Engine) BeginEdit(req EditRequest) (*EditSession, error) {
	if req.Template == nil {
		return nil, fmt.Errorf("diffusion: edit requires a template cache")
	}
	cfg := e.Model.Config()
	var maskedIdx []int
	if req.Mask != nil {
		if req.Mask.H != cfg.LatentH || req.Mask.W != cfg.LatentW {
			return nil, fmt.Errorf("diffusion: mask grid %d×%d does not match latent grid %d×%d",
				req.Mask.H, req.Mask.W, cfg.LatentH, cfg.LatentW)
		}
		maskedIdx = req.Mask.MaskedIndices()
	}
	switch req.Mode {
	case EditCachedY, EditCachedKV, EditNaiveSkip:
		if len(maskedIdx) == 0 {
			return nil, fmt.Errorf("diffusion: mode %v requires a non-empty mask", req.Mode)
		}
	case EditFull, EditTeaCache:
	default:
		return nil, fmt.Errorf("diffusion: unknown edit mode %v", req.Mode)
	}
	if req.Mode == EditCachedY || req.Mode == EditCachedKV {
		if len(req.Template.Steps) != e.Sched.Steps {
			return nil, fmt.Errorf("diffusion: template cache has %d steps, engine has %d",
				len(req.Template.Steps), e.Sched.Steps)
		}
		if cfg.GuidanceScale > 0 && len(req.Template.UncondSteps) != e.Sched.Steps {
			return nil, fmt.Errorf("diffusion: guidance requires an unconditional cache (%d steps, want %d)",
				len(req.Template.UncondSteps), e.Sched.Steps)
		}
	}
	if req.Template.form {
		if _, lanes := e.Model.(laneBackbone); !lanes || e.ReadsY(req) {
			return nil, fmt.Errorf("diffusion: %v edit of template %d: %w", req.Mode, req.Template.TemplateID, ErrNoY)
		}
	}
	policy := req.PolicyOverride
	if policy == nil {
		p, err := PolicyByName(req.Policy)
		if err != nil {
			return nil, err
		}
		policy = p
	}
	if policy != nil && (req.Mode == EditTeaCache || req.Mode == EditNaiveSkip) {
		return nil, fmt.Errorf("diffusion: step policy %q does not compose with mode %v", policy.Name(), req.Mode)
	}

	cond := model.EmbedPrompt(req.Prompt, cfg.Hidden)
	reqRNG := tensor.NewRNG(req.Seed ^ 0x5EED)
	freshNoise := tensor.Randn(reqRNG, req.Template.Z0.R, req.Template.Z0.C, 1)
	s := &EditSession{
		engine:    e,
		req:       req,
		x:         e.noisyInit(req.Template.Z0, req.Template.Noise, freshNoise, maskedIdx),
		t:         e.Sched.Steps - 1,
		cond:      cond,
		maskedIdx: maskedIdx,
		modes:     e.blockModes(req),
		teaLastT:  -1,
		passes:    1,
	}
	if cfg.GuidanceScale > 0 {
		s.passes = 2
	}
	s.xNext = s.x.Clone()
	// Template state is replayed and derived here, not in the first step:
	// callers run BeginEdit off the goroutine that steps their batch.
	if req.Mode == EditCachedY || req.Mode == EditCachedKV {
		s.traj = e.trajectoryFor(req.Template)
	}
	s.maskedOut = s.traj != nil || req.Mode == EditNaiveSkip
	if req.Mode == EditCachedY {
		// EditCachedKV has K/V recorded for every block and needs none
		// derived.
		s.derived = e.derivedFor(req.Template, s.traj, !e.ReadsY(req))
	}
	for p := 0; p < s.passes; p++ {
		s.kvBlocks[p] = make([]bool, len(s.modes))
		for i, m := range s.modes {
			// Pass 0 adds the request's prompt to every row, pass 1 none.
			s.kvBlocks[p][i] = m == model.ExecCachedKV ||
				(m == model.ExecCachedY && s.derived != nil && model.Derivable(s.modes, i, p == 0))
		}
	}
	if req.Mode == EditTeaCache {
		s.teaThreshold = req.TeaCacheThreshold
		if s.teaThreshold <= 0 {
			s.teaThreshold = e.teaCacheThresholdFor(teaCacheComputeFraction)
		}
	}
	if policy != nil {
		// One-time per-session allocations; the steady-state step itself
		// stays zero-alloc (plan/observe write into these buffers, the
		// residual caches are preallocated, applied outputs come from the
		// arena).
		s.policyName = policy.Name()
		s.policy = policy.NewState(e.Sched.Steps, cfg.NumBlocks)
		s.reusePlan = make([]bool, cfg.NumBlocks)
		s.rcCond = model.NewReuseCache(cfg.NumBlocks, cfg.Tokens(), cfg.Hidden)
		if cfg.GuidanceScale > 0 {
			s.rcUncond = model.NewReuseCache(cfg.NumBlocks, cfg.Tokens(), cfg.Hidden)
		}
	}
	req.Template.Hold()
	return s, nil
}

// RemainingSteps returns how many denoising steps are left.
func (s *EditSession) RemainingSteps() int { return s.t + 1 }

// Done reports whether all denoising steps have executed.
func (s *EditSession) Done() bool { return s.t < 0 }

// StepsComputed returns how many steps actually ran the model forward
// (differs from total steps only under TeaCache).
func (s *EditSession) StepsComputed() int { return s.stepsComputed }

// Policy returns the effective step-policy name ("off" when none).
func (s *EditSession) Policy() string {
	if s.policyName == "" {
		return "off"
	}
	return s.policyName
}

// LastStepBlocks returns how many block executions the most recent Step
// computed and how many it reused (both guidance passes counted). A
// TeaCache-skipped step reports 0/0.
func (s *EditSession) LastStepBlocks() (computed, reused int) {
	return s.lastBlocksComputed, s.lastBlocksReused
}

// LastStepBlocksKV returns how many of the most recent Step's computed
// blocks were given their unmasked tokens' K/V — derived from the template
// or recorded with it — instead of projecting all tokens.
func (s *EditSession) LastStepBlocksKV() int { return s.lastBlocksKV }

// TotalBlocks returns the session-lifetime computed/reused block counts.
func (s *EditSession) TotalBlocks() (computed, reused int) {
	return s.totalBlocksComputed, s.totalBlocksReused
}

// ReusedBlockRatio returns the fraction of block executions served from
// stale residuals so far (0 when the policy is off or nothing ran).
func (s *EditSession) ReusedBlockRatio() float64 {
	total := s.totalBlocksComputed + s.totalBlocksReused
	if total == 0 {
		return 0
	}
	return float64(s.totalBlocksReused) / float64(total)
}

// LastStepLanes returns how many denoiser passes the most recent step ran:
// one per guidance pass, none when TeaCache reused its last prediction.
func (s *EditSession) LastStepLanes() int { return s.nLanes }

// Step executes one denoising step and reports whether the session is done.
// Calling Step on a finished session is an error. It is StepBatch with one
// session.
func (s *EditSession) Step() (done bool, err error) {
	one := [1]*EditSession{s}
	if errs := s.engine.StepBatch(one[:]); errs != nil {
		return false, errs[0]
	}
	return s.Done(), nil
}

// StepBatch executes one denoising step of every session, all of which must
// be distinct, unfinished sessions of this engine: every guidance pass of
// every member becomes one lane of a single stacked forward
// (model.Model.ForwardLanes), so batch members and guidance passes share
// their token-wise GEMMs. Members need nothing in common — timestep,
// template, mask, mode and policy are each lane's own — and every member's
// latent is bit-identical to what stepping it alone produces. It returns
// nil when every member stepped; otherwise one entry per session, nil for
// those that did. A member whose step failed is left where it was.
//
// The kernel workspace is borrowed for the step only — everything a session
// keeps between steps lives in its own buffers — so a queued, preempted or
// abandoned session holds none, and an engine needs as many workspaces as
// it has steps running at once, not as it has sessions open.
func (e *Engine) StepBatch(sessions []*EditSession) []error {
	ws := e.acquireWS()
	defer e.releaseWS(ws)
	var errs []error
	lanes := ws.lanes[:0]
	for i, s := range sessions {
		s.lane0, s.nLanes = len(lanes), 0
		switch {
		case s.engine != e:
			errs = setErr(errs, len(sessions), i, fmt.Errorf("diffusion: StepBatch on another engine's session"))
		case s.Done():
			errs = setErr(errs, len(sessions), i, fmt.Errorf("diffusion: Step on finished session"))
		default:
			lanes = s.beginStep(lanes)
		}
	}
	ws.lanes = lanes
	if m, ok := e.Model.(laneBackbone); ok {
		m.ForwardLanes(ws.arena, lanes)
	} else {
		for i := range lanes {
			l := &lanes[i]
			l.WS = ws.arena
			l.Out, l.Err = e.Model.ForwardStep(l.Latent, l.T, l.Cond, l.StepOptions)
			if l.Err == nil && l.MaskedOut {
				all := l.Out
				l.Out = ws.arena.GetRaw(len(l.MaskedIdx), all.C)
				tensor.GatherRowsInto(l.Out, all, l.MaskedIdx)
			}
		}
	}
	for i, s := range sessions {
		if errs != nil && errs[i] != nil {
			continue
		}
		if err := s.finishStep(lanes[s.lane0 : s.lane0+s.nLanes]); err != nil {
			errs = setErr(errs, len(sessions), i, err)
		}
	}
	return errs
}

// setErr records member i's error, allocating the n-entry result on the
// first failure.
func setErr(errs []error, n, i int, err error) []error {
	if errs == nil {
		errs = make([]error, n)
	}
	errs[i] = err
	return errs
}

// beginStep plans the session's next step and appends the lanes it needs
// the denoiser for: one per guidance pass, or none when TeaCache reuses its
// last prediction. For cached modes each pass uses its own activation cache
// (and its own derived K/V), so unmasked rows reproduce the template
// trajectory exactly under guidance too. The adaptive step policy's
// per-block reuse plan and per-pass residual caches ride along (all nil
// when no policy is active); each guidance pass keeps its own residuals
// because the two trajectories drift differently.
func (s *EditSession) beginStep(lanes []model.Lane) []model.Lane {
	e, t, tpl := s.engine, s.t, s.req.Template
	if s.req.Mode == EditTeaCache && s.teaLastEps != nil {
		s.teaAccum += embeddingDrift(s.teaLastT, t, e.Model.Config().Hidden)
		if s.teaAccum < s.teaThreshold {
			return lanes
		}
	}
	if s.policy != nil {
		// stepIdx is the 0-based execution index (step 0 denoises from
		// pure noise); policies reason in execution order, not timestep.
		s.policy.PlanStep(s.reusePlan, e.Sched.Steps-1-t)
		s.rcCond.BeginStep()
		if s.rcUncond != nil {
			s.rcUncond.BeginStep()
		}
	}
	cached := s.req.Mode == EditCachedY || s.req.Mode == EditCachedKV
	opts := model.StepOptions{MaskedIdx: s.maskedIdx, Modes: s.modes, Reuse: s.reusePlan, ReuseCache: s.rcCond}
	if cached {
		opts.Cached = tpl.Steps[t]
		if s.derived != nil {
			opts.Derived = s.derived.cond[t]
		}
	}
	lanes = append(lanes, model.Lane{Latent: s.x, T: t, Cond: s.cond, StepOptions: opts, MaskedOut: s.maskedOut})
	if s.passes == 2 {
		opts.ReuseCache = s.rcUncond
		if cached {
			opts.Cached = tpl.UncondSteps[t]
			if s.derived != nil {
				opts.Derived = s.derived.uncond[t]
			}
		}
		lanes = append(lanes, model.Lane{Latent: s.x, T: t, StepOptions: opts, MaskedOut: s.maskedOut})
	}
	s.nLanes = len(lanes) - s.lane0
	return lanes
}

// finishStep completes the step beginStep planned, given its forwarded
// lanes: combine the guidance passes, account for what ran, and apply the
// DDIM update.
func (s *EditSession) finishStep(lanes []model.Lane) error {
	e, t := s.engine, s.t
	for i := range lanes {
		if lanes[i].Err != nil {
			return lanes[i].Err
		}
	}
	eps := s.teaLastEps
	if len(lanes) > 0 {
		eps = lanes[0].Out
		if len(lanes) == 2 {
			guideInto(eps, lanes[1].Out, eps, e.Model.Config().GuidanceScale)
		}
		s.stepsComputed++
	}
	blocksPerStep := e.Model.Config().NumBlocks * s.passes
	s.lastBlocksComputed, s.lastBlocksReused, s.lastBlocksKV = 0, 0, 0
	switch {
	case len(lanes) == 0: // TeaCache reuses its last prediction
	case s.req.Mode == EditTeaCache:
		// eps is arena-backed; copy it to persistent storage since it must
		// outlive this step's workspace.
		if s.teaLastEps == nil {
			s.teaLastEps = eps.Clone()
		} else {
			copy(s.teaLastEps.Data, eps.Data)
		}
		s.teaLastT, s.teaAccum = t, 0
		s.lastBlocksComputed = blocksPerStep
	default:
		if s.policy != nil {
			s.lastBlocksReused = s.rcCond.StepReusedCount()
			if s.rcUncond != nil {
				s.lastBlocksReused += s.rcUncond.StepReusedCount()
			}
			// The conditional pass drives the drift feedback: it is the
			// pass whose output dominates the guided prediction.
			s.policy.Observe(s.rcCond.Rates(), s.rcCond.StepReused())
		}
		s.lastBlocksComputed = blocksPerStep - s.lastBlocksReused
		rcs := [...]*model.ReuseCache{s.rcCond, s.rcUncond}
		for p, rc := range rcs[:s.passes] {
			for i, kv := range s.kvBlocks[p] {
				if kv && (rc == nil || !rc.StepReused()[i]) {
					s.lastBlocksKV++
				}
			}
		}
	}
	s.totalBlocksComputed += s.lastBlocksComputed
	s.totalBlocksReused += s.lastBlocksReused
	var rows []int
	if s.maskedOut {
		rows = s.maskedIdx
		rest := s.x // the naive baseline never touches the unmasked rows
		if s.traj != nil {
			rest = s.traj[t]
		}
		copy(s.xNext.Data, rest.Data)
	}
	e.ddimUpdateInto(s.xNext, s.x, eps, t, rows)
	s.x, s.xNext = s.xNext, s.x
	if s.t--; s.t < 0 {
		s.req.Template.Release() // read for the last time
	}
	return nil
}

// Latent returns the current latent (aliased; callers must not mutate).
func (s *EditSession) Latent() *tensor.Matrix { return s.x }

// Decode renders the current latent into an image. It is usually called
// once the session is done, but mid-session decoding is allowed (it shows
// the partially denoised state).
func (s *EditSession) Decode() (*img.Image, error) {
	cfg := s.engine.Model.Config()
	return s.engine.Codec.Decode(s.x, cfg.LatentH, cfg.LatentW)
}

// Result finalizes the session into an EditResult. It errors if steps
// remain.
func (s *EditSession) Result() (*EditResult, error) {
	if !s.Done() {
		return nil, fmt.Errorf("diffusion: Result with %d steps remaining", s.RemainingSteps())
	}
	im, err := s.Decode()
	if err != nil {
		return nil, err
	}
	return &EditResult{
		Image:          im,
		StepsComputed:  s.stepsComputed,
		BlocksComputed: s.totalBlocksComputed,
		BlocksReused:   s.totalBlocksReused,
		FinalLatent:    s.x,
	}, nil
}
