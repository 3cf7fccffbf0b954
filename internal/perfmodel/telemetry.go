package perfmodel

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"flashps/internal/obs"
	"flashps/internal/tensor"
)

// Overheads bundles the CPU-stage and system-overhead costs the batching
// runner charges per request and per step. The paper's §6.6 microbenchmark
// constants are one instance (PaperOverheads); FitFromTelemetry produces
// another from a live server's cost samples, which is what turns the
// simulator into a digital twin of the measured machine.
type Overheads struct {
	// Preprocess is the per-request CPU preprocessing cost (image decode,
	// mask rasterization, latent encode — and, live, the cache load into
	// the session, which the preprocess span covers).
	Preprocess float64 `json:"preprocess"`
	// Postprocess is the per-request CPU postprocessing cost (decode,
	// image encode).
	Postprocess float64 `json:"postprocess"`
	// SchedulerDecision is the per-request routing cost.
	SchedulerDecision float64 `json:"scheduler_decision"`
	// BatchOrganize is the per-step batch-assembly cost under continuous
	// batching.
	BatchOrganize float64 `json:"batch_organize"`
	// Serialize is the latent serialization cost per finished request.
	Serialize float64 `json:"serialize"`
	// IPC is the engine→postprocess handoff cost per finished request.
	IPC float64 `json:"ipc"`
}

// PaperOverheads returns the §6.6 microbenchmark constants — the anchors
// the runner uses when no fitted set is loaded.
func PaperOverheads() Overheads {
	return Overheads{
		Preprocess:        PreprocessLatency,
		Postprocess:       PostprocessLatency,
		SchedulerDecision: SchedulerDecisionOverhead,
		BatchOrganize:     BatchOrganizeOverhead,
		Serialize:         SerializeOverhead,
		IPC:               IPCOverhead,
	}
}

// servingSeedSalt derives the offline-profiling RNG the live server uses
// for its scheduler's regression fit.
const servingSeedSalt = 0xCA11B

// ServingEstimator fits the Algorithm-2 scoring estimator exactly as the
// live server does at startup: the same sweep, the same seed salt. The
// digital twin calls this with the server's profile and seed so sim and
// real score batches bit-for-bit identically.
func ServingEstimator(p ModelProfile, seed uint64) (*Estimator, error) {
	return Calibrate(p, tensor.NewRNG(seed^servingSeedSalt), 0.02)
}

// EngineProfile builds a ModelProfile describing an arbitrary engine (the
// reduced CPU models the live server and benches run) so telemetry fitting
// and the digital twin can compute FLOP features for the engine that
// actually executed. The GPU fields are nominal — fitted coefficients, not
// the analytic device model, supply the latencies.
func EngineProfile(name string, blocks, tokens, hidden, ffnMult, steps, maxBatch int) ModelProfile {
	if maxBatch <= 0 {
		maxBatch = 4
	}
	return ModelProfile{
		Name: name, Blocks: blocks, Tokens: tokens, Hidden: hidden,
		FFNMult: ffnMult, Steps: steps, BytesPerElt: 4, GPU: A10, MaxBatch: maxBatch,
	}
}

// StageFit summarizes the fit over one stage's samples.
type StageFit struct {
	Samples int `json:"samples"`
	// R2 is the coefficient of determination of the robust fit (1 for
	// constant fits).
	R2 float64 `json:"r2"`
	// Residual is the median absolute relative residual.
	Residual float64 `json:"residual"`
}

// CoefficientsVersion is the serialization version of Coefficients.
const CoefficientsVersion = 1

// Coefficients is a versioned, serializable cost model fitted from
// telemetry: the per-step compute law, the cache-load law, and the CPU
// overheads. internal/cluster and internal/replay load it in place of the
// hard-coded paper anchors to predict a measured machine.
type Coefficients struct {
	Version int `json:"version"`
	// Profile describes the engine the samples came from (its dimensions
	// feed the FLOP features at prediction time).
	Profile ModelProfile `json:"profile"`
	// Scoring names the paper profile the captured server's scheduler
	// scored with, and Seed its RNG seed, so a twin can reproduce the
	// server's Algorithm-2 estimator exactly (ServingEstimator).
	Scoring string `json:"scoring,omitempty"`
	Seed    uint64 `json:"seed"`
	// FittedAt is the fit timestamp in the capturing plane's clock domain.
	FittedAt float64 `json:"fitted_at"`

	// StepPerFLOP and StepPerUnit define the denoise-step law: a batch of
	// n sessions advancing one step costs StepPerFLOP·ΣFLOPs +
	// StepPerUnit·n seconds (per-session compute plus per-session fixed
	// cost — the live engine steps sessions serially).
	StepPerFLOP float64 `json:"step_per_flop"`
	StepPerUnit float64 `json:"step_per_unit"`
	// LoadPerByte/LoadBase define the cache-load law (seconds per loaded
	// byte plus a fixed cost); zero when the capture had no load samples.
	// Fitted from host-tier loads only — disk-tier serves fold staging
	// latency in and belong to the spill law below.
	LoadPerByte float64 `json:"load_per_byte"`
	LoadBase    float64 `json:"load_base"`
	// SpillPerByte/SpillBase define the spill-tier staging law (seconds to
	// promote a template's bytes from the disk tier back into RAM), fitted
	// from cache_stage samples — the sim's modeled stagings and the live
	// store's measured disk promotions record the same shape. Zero when the
	// capture never touched the spill tier.
	SpillPerByte float64 `json:"spill_per_byte,omitempty"`
	SpillBase    float64 `json:"spill_base,omitempty"`
	// Overheads are the fitted CPU-stage costs.
	Overheads Overheads `json:"overheads"`
	// Fits records per-stage fit quality, keyed by cost-sample stage.
	Fits map[string]StageFit `json:"fits"`
}

// StepSeconds predicts one denoising step of a batch doing flops total
// FLOPs across units (request, step) work units.
func (c *Coefficients) StepSeconds(flops float64, units int) float64 {
	s := c.StepPerFLOP*flops + c.StepPerUnit*float64(units)
	if s < 0 {
		return 0
	}
	return s
}

// LoadSeconds predicts a cache load of the given bytes.
func (c *Coefficients) LoadSeconds(bytes float64) float64 {
	s := c.LoadPerByte*bytes + c.LoadBase
	if s < 0 {
		return 0
	}
	return s
}

// SpillSeconds predicts a disk→RAM staging of the given bytes.
func (c *Coefficients) SpillSeconds(bytes float64) float64 {
	s := c.SpillPerByte*bytes + c.SpillBase
	if s < 0 {
		return 0
	}
	return s
}

// Validate checks version and internal consistency after deserialization.
func (c *Coefficients) Validate() error {
	if c.Version != CoefficientsVersion {
		return fmt.Errorf("perfmodel: coefficients version %d, want %d", c.Version, CoefficientsVersion)
	}
	if c.Profile.Tokens <= 0 || c.Profile.Hidden <= 0 || c.Profile.Blocks <= 0 || c.Profile.Steps <= 0 {
		return fmt.Errorf("perfmodel: coefficients carry a degenerate profile %+v", c.Profile)
	}
	if c.StepPerFLOP < 0 || c.StepPerUnit < 0 {
		return fmt.Errorf("perfmodel: negative step law (%g, %g)", c.StepPerFLOP, c.StepPerUnit)
	}
	return nil
}

// Info renders the coefficient set for the telemetry plane's model-age
// and fit-residual gauges.
func (c *Coefficients) Info() obs.CalibrationInfo {
	info := obs.CalibrationInfo{FittedAt: c.FittedAt}
	stages := make([]string, 0, len(c.Fits))
	for s := range c.Fits {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		info.Fits = append(info.Fits, obs.StageFitInfo{Stage: s, Residual: c.Fits[s].Residual})
	}
	return info
}

// SaveCoefficients writes a coefficient set as indented JSON.
func SaveCoefficients(path string, c *Coefficients) error {
	data, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return fmt.Errorf("perfmodel: marshal coefficients: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCoefficients reads and validates a coefficient set.
func LoadCoefficients(path string) (*Coefficients, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: load coefficients: %w", err)
	}
	var c Coefficients
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("perfmodel: parse coefficients %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// FitConfig parameterizes FitFromTelemetry.
type FitConfig struct {
	// Profile describes the engine that produced the samples.
	Profile ModelProfile
	// Scoring/Seed identify the captured server's scheduler estimator
	// (see Coefficients.Scoring).
	Scoring string
	Seed    uint64
	// FittedAt stamps the model (caller supplies its clock's now).
	FittedAt float64
}

// MinStepSamples is the minimum number of denoise-step samples a fit
// needs; below it the step law would be noise.
const MinStepSamples = 8

// FitFromTelemetry fits a Coefficients set from recorded cost samples via
// robust (Huber-weighted iteratively-reweighted) least squares over the
// package's linear scaffolding:
//
//   - denoise_step samples fit seconds = StepPerFLOP·FLOPs +
//     StepPerUnit·Units (two predictors, no intercept — the live engine's
//     per-session step samples have Units=1, so the unit term is the
//     per-session fixed cost);
//   - cache_load samples fit seconds = LoadPerByte·Bytes + LoadBase;
//   - the CPU stages (preprocess, postprocess, schedule, serialize,
//     handoff, batch_organize) fit per-unit medians, robust to stragglers.
func FitFromTelemetry(cfg FitConfig, samples []obs.CostSample) (*Coefficients, error) {
	byStage := make(map[string][]obs.CostSample)
	for _, s := range samples {
		byStage[s.Stage] = append(byStage[s.Stage], s)
	}

	// The step law models a full-compute forward pass. Steps that an
	// adaptive step policy partially served from cached residuals
	// (BlocksReused > 0) spend real seconds on un-modeled reuse overhead,
	// and TeaCache-skipped steps (BlocksComputed == 0 with a block split
	// recorded) spend almost none — both would bias the regression, so the
	// fit keeps only honest full-compute samples. Legacy samples without
	// the block split (both fields zero) pass through unchanged.
	steps := byStage[obs.CostStageDenoiseStep][:0:0]
	excluded := 0
	for _, s := range byStage[obs.CostStageDenoiseStep] {
		if s.BlocksReused > 0 || (s.BlocksComputed == 0 && s.FLOPs == 0) {
			excluded++
			continue
		}
		steps = append(steps, s)
	}
	if len(steps) < MinStepSamples {
		return nil, fmt.Errorf("perfmodel: %d full-compute denoise_step samples (%d reused-block samples excluded), need ≥%d",
			len(steps), excluded, MinStepSamples)
	}
	c := &Coefficients{
		Version:  CoefficientsVersion,
		Profile:  cfg.Profile,
		Scoring:  cfg.Scoring,
		Seed:     cfg.Seed,
		FittedAt: cfg.FittedAt,
		Fits:     make(map[string]StageFit),
	}

	x1 := make([]float64, len(steps))
	x2 := make([]float64, len(steps))
	y := make([]float64, len(steps))
	for i, s := range steps {
		x1[i] = s.FLOPs
		x2[i] = float64(s.Units)
		y[i] = s.Seconds
	}
	a, b, r2, resid, err := fitNonNegative2(x1, x2, y)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: step fit: %w", err)
	}
	c.StepPerFLOP, c.StepPerUnit = a, b
	c.Fits[obs.CostStageDenoiseStep] = StageFit{Samples: len(steps), R2: r2, Residual: resid}

	// Byte-linear laws: seconds = perByte·Bytes + base, ≥4 samples each.
	fitBytesLaw := func(stage string, samples []obs.CostSample, perByte, base *float64) {
		if len(samples) < 4 {
			return
		}
		lx := make([]float64, len(samples))
		ones := make([]float64, len(samples))
		ly := make([]float64, len(samples))
		for i, s := range samples {
			lx[i] = s.Bytes
			ones[i] = 1
			ly[i] = s.Seconds
		}
		if a, b, r2, resid, err := fitNonNegative2(lx, ones, ly); err == nil {
			*perByte, *base = a, b
			c.Fits[stage] = StageFit{Samples: len(samples), R2: r2, Residual: resid}
		}
	}
	// Disk-tier serves fold staging latency into the load span; keep the
	// host-load law clean and let cache_stage carry the disk cost.
	var hostLoads []obs.CostSample
	for _, s := range byStage[obs.CostStageCacheLoad] {
		if s.Tier != "disk" {
			hostLoads = append(hostLoads, s)
		}
	}
	fitBytesLaw(obs.CostStageCacheLoad, hostLoads, &c.LoadPerByte, &c.LoadBase)
	fitBytesLaw(obs.CostStageCacheStage, byStage[obs.CostStageCacheStage], &c.SpillPerByte, &c.SpillBase)

	fitQuantile := func(stage string, dst *float64, q float64) {
		ss := byStage[stage]
		if len(ss) == 0 {
			return
		}
		per := make([]float64, 0, len(ss))
		for _, s := range ss {
			units := s.Units
			if units <= 0 {
				units = 1
			}
			per = append(per, s.Seconds/float64(units))
		}
		sort.Float64s(per)
		m := per[min(int(q*float64(len(per))), len(per)-1)]
		*dst = m
		c.Fits[stage] = StageFit{Samples: len(ss), R2: 1, Residual: medianRelResid(per, m)}
	}
	fitMedian := func(stage string, dst *float64) { fitQuantile(stage, dst, 0.5) }
	fitMedian(obs.CostStagePreprocess, &c.Overheads.Preprocess)
	fitMedian(obs.CostStagePostprocess, &c.Overheads.Postprocess)
	fitMedian(obs.CostStageSchedule, &c.Overheads.SchedulerDecision)
	fitMedian(obs.CostStageSerialize, &c.Overheads.Serialize)
	// The live handoff span measures engine-enqueue to post-worker pickup,
	// so under load it is dominated by post-pool queue wait — additive,
	// non-negative contamination on top of the intrinsic IPC cost. The
	// simulator charges IPC as engine-blocking serial overhead, so fitting
	// the median would stall the simulated engine on queueing it already
	// models; the distribution's floor is the intrinsic cost.
	fitQuantile(obs.CostStageHandoff, &c.Overheads.IPC, 0.1)
	fitMedian(obs.CostStageOrganize, &c.Overheads.BatchOrganize)

	return c, nil
}

// fitNonNegative2 fits y = a·x1 + b·x2 with a, b ≥ 0: an unconstrained
// robust fit first, and when a coefficient comes out negative (noise can
// push the small term below zero, which would let large batches predict
// negative — or, after a naive clamp, inflated — durations) it is pinned
// to zero and the other refit robustly on its own. This is exact
// non-negative least squares for two predictors.
func fitNonNegative2(x1, x2 []float64, y []float64) (a, b, r2, resid float64, err error) {
	a, b, r2, resid, err = fitRobust2(x1, x2, y)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if a >= 0 && b >= 0 {
		return a, b, r2, resid, nil
	}
	zeros := make([]float64, len(y))
	if b < 0 {
		// fitRobust2's degenerate-predictor fallback solves the single
		// identifiable slope when one column is all zeros.
		a, _, r2, resid, err = fitRobust2(x1, zeros, y)
		b = 0
	} else {
		_, b, r2, resid, err = fitRobust2(zeros, x2, y)
		a = 0
	}
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return math.Max(0, a), math.Max(0, b), r2, resid, nil
}

// fitRobust2 fits y = a·x1 + b·x2 (no intercept) by Huber-weighted
// iteratively-reweighted least squares: an OLS seed, then 5 rounds of
// downweighting residuals beyond 1.345·(1.4826·MAD). Returns R² and the
// median absolute relative residual of the final fit.
func fitRobust2(x1, x2, y []float64) (a, b, r2, resid float64, err error) {
	n := len(y)
	if len(x1) != n || len(x2) != n {
		return 0, 0, 0, 0, fmt.Errorf("length mismatch %d/%d/%d", len(x1), len(x2), n)
	}
	if n < 2 {
		return 0, 0, 0, 0, fmt.Errorf("need ≥2 points, got %d", n)
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	solve := func() (float64, float64, error) {
		var s11, s12, s22, s1y, s2y float64
		for i := 0; i < n; i++ {
			s11 += w[i] * x1[i] * x1[i]
			s12 += w[i] * x1[i] * x2[i]
			s22 += w[i] * x2[i] * x2[i]
			s1y += w[i] * x1[i] * y[i]
			s2y += w[i] * x2[i] * y[i]
		}
		det := s11*s22 - s12*s12
		// Collinear predictors (e.g. constant FLOPs-per-unit workload):
		// fall back to the single identifiable slope.
		if math.Abs(det) <= 1e-12*math.Max(s11*s22, 1e-300) {
			switch {
			case s11 > 0:
				return s1y / s11, 0, nil
			case s22 > 0:
				return 0, s2y / s22, nil
			default:
				return 0, 0, fmt.Errorf("degenerate predictors")
			}
		}
		return (s1y*s22 - s2y*s12) / det, (s2y*s11 - s1y*s12) / det, nil
	}
	if a, b, err = solve(); err != nil {
		return 0, 0, 0, 0, err
	}
	res := make([]float64, n)
	for iter := 0; iter < 5; iter++ {
		for i := 0; i < n; i++ {
			res[i] = math.Abs(y[i] - a*x1[i] - b*x2[i])
		}
		sigma := 1.4826 * median(res)
		if sigma <= 0 {
			break // perfect fit
		}
		k := 1.345 * sigma
		for i := 0; i < n; i++ {
			if res[i] <= k {
				w[i] = 1
			} else {
				w[i] = k / res[i]
			}
		}
		var na, nb float64
		if na, nb, err = solve(); err != nil {
			return 0, 0, 0, 0, err
		}
		if math.Abs(na-a) <= 1e-12*math.Abs(a)+1e-18 &&
			math.Abs(nb-b) <= 1e-12*math.Abs(b)+1e-18 {
			a, b = na, nb
			break
		}
		a, b = na, nb
	}

	var sy, ssRes, ssTot float64
	for i := 0; i < n; i++ {
		sy += y[i]
	}
	meanY := sy / float64(n)
	rel := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		pred := a*x1[i] + b*x2[i]
		ssRes += (y[i] - pred) * (y[i] - pred)
		ssTot += (y[i] - meanY) * (y[i] - meanY)
		if y[i] > 0 {
			rel = append(rel, math.Abs(pred-y[i])/y[i])
		}
	}
	r2 = 1
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return a, b, r2, median(rel), nil
}

// median returns the median of xs (0 for empty input). It does not modify
// its argument.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

// medianRelResid returns the median |x-m|/m (0 when m is 0).
func medianRelResid(xs []float64, m float64) float64 {
	if m == 0 {
		return 0
	}
	rel := make([]float64, len(xs))
	for i, x := range xs {
		rel[i] = math.Abs(x-m) / m
	}
	return median(rel)
}
