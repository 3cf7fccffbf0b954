// Digital-twin accuracy harness: capture a live serving run (trace,
// per-request outcomes, and the telemetry plane's cost samples), fit a
// perfmodel.Coefficients set from the samples, replay the identical trace
// through the calibrated simulator, and report per-stage and end-to-end
// prediction error. `make calib-gate` runs this as a regression gate with
// the error budget documented in docs/CALIBRATION.md.
package replay

import (
	"context"
	"fmt"
	"math"

	"flashps/internal/batching"
	"flashps/internal/cluster"
	mdl "flashps/internal/model"
	"flashps/internal/obs"
	"flashps/internal/perfmodel"
	"flashps/internal/serve"
	"flashps/internal/workload"
)

// CaptureConfig parameterizes one instrumented live serving run.
type CaptureConfig struct {
	// Model is the numeric engine the in-process server steps.
	Model mdl.Config
	// Scoring is the paper-scale profile the server's Algorithm-2
	// scheduler scores with (not the engine's own dimensions).
	Scoring perfmodel.ModelProfile
	// Workers / MaxBatch shape the serving plane.
	Workers, MaxBatch int
	// PreWorkers / PostWorkers size the CPU stage pools (0 = server
	// defaults).
	PreWorkers, PostWorkers int
	// Policy routes requests; Discipline picks the batching discipline
	// (simulator spelling, so the twin replay needs no translation).
	Policy     batching.Policy
	Discipline cluster.Batching
	// Seed fixes engine weights, the scheduler estimator, and the trace.
	Seed uint64
	// N / RPS / Dist / Templates shape the open-loop workload.
	N         int
	RPS       float64
	Dist      workload.MaskDist
	Templates int
}

// Capture is everything a twin replay needs from one live run: the exact
// trace fired, the measured per-request outcomes, the cost samples the
// plane recorded, and the identity of the scheduler the server ran.
type Capture struct {
	Trace    []workload.Request
	Requests []serve.RequestOutcome
	Samples  []obs.CostSample
	// Engine is the profile describing the engine that executed (FLOP
	// features on the samples come from it).
	Engine perfmodel.ModelProfile
	// Scoring / Seed identify the server's scheduler estimator.
	Scoring string
	Seed    uint64

	Workers, MaxBatch int
	Policy            batching.Policy
	Discipline        cluster.Batching

	OfferedRPS float64
	ElapsedS   float64
	Errors     int
}

// CaptureServe runs an instrumented in-process server under the configured
// open-loop workload and returns the capture.
func CaptureServe(cfg CaptureConfig) (*Capture, error) {
	if cfg.N <= 0 || cfg.RPS <= 0 {
		return nil, fmt.Errorf("replay: capture needs N > 0 and RPS > 0")
	}
	if cfg.Templates <= 0 {
		cfg.Templates = 4
	}
	srv, err := serve.New(serve.Config{
		Model:       cfg.Model,
		Profile:     cfg.Scoring,
		Workers:     cfg.Workers,
		MaxBatch:    cfg.MaxBatch,
		PreWorkers:  cfg.PreWorkers,
		PostWorkers: cfg.PostWorkers,
		Policy:      cfg.Policy,
		Discipline:  cfg.Discipline.Discipline(),
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	defer srv.Close()

	ids := make([]uint64, cfg.Templates)
	for i := range ids {
		ids[i] = uint64(i + 1)
		if _, err := srv.Prepare(serve.PrepareRequest{
			TemplateID: ids[i], ImageSeed: ids[i], Prompt: "capture",
		}); err != nil {
			return nil, err
		}
	}
	load, err := serve.RunLoad(context.Background(), srv, serve.LoadGenConfig{
		RPS: cfg.RPS, N: cfg.N, Dist: cfg.Dist, Templates: ids, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Capture{
		Trace:      load.Trace,
		Requests:   load.Requests,
		Samples:    srv.Obs().Profile.Snapshot(),
		Engine:     srv.EngineProfile(),
		Scoring:    cfg.Scoring.Name,
		Seed:       cfg.Seed,
		Workers:    cfg.Workers,
		MaxBatch:   cfg.MaxBatch,
		Policy:     cfg.Policy,
		Discipline: cfg.Discipline,
		OfferedRPS: load.OfferedRPS,
		ElapsedS:   load.Elapsed.Seconds(),
		Errors:     load.Errors,
	}, nil
}

// Fit calibrates a coefficient set from the capture's cost samples.
func (c *Capture) Fit() (*perfmodel.Coefficients, error) {
	return perfmodel.FitFromTelemetry(perfmodel.FitConfig{
		Profile:  c.Engine,
		Scoring:  c.Scoring,
		Seed:     c.Seed,
		FittedAt: c.ElapsedS,
	}, c.Samples)
}

// Predict replays the capture's trace through the calibrated simulator:
// the fitted step law and overheads supply every duration, and the
// scheduler scores with the same estimator the live server fitted at
// startup (same scoring profile, same seed salt).
func Predict(c *Capture, coeffs *perfmodel.Coefficients, plane *obs.Plane) (*cluster.Result, error) {
	if err := coeffs.Validate(); err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		System:   cluster.SystemFlashPS,
		Batching: c.Discipline,
		Policy:   c.Policy,
		Workers:  c.Workers,
		Profile:  coeffs.Profile,
		MaxBatch: c.MaxBatch,
		Seed:     c.Seed,
		Costs:    coeffs,
		Obs:      plane,
	}
	if coeffs.Scoring != "" {
		scoring, err := perfmodel.ProfileByName(coeffs.Scoring)
		if err != nil {
			return nil, err
		}
		est, err := perfmodel.ServingEstimator(scoring, coeffs.Seed)
		if err != nil {
			return nil, err
		}
		cfg.Estimator = est
	}
	return cluster.Run(cfg, c.Trace)
}

// StageError is one pipeline interval's percentile prediction error:
// the simulator's P50/P99 against the measured P50/P99, with relative
// errors |predicted − measured| / measured.
type StageError struct {
	MeasuredP50  float64 `json:"measured_p50_s"`
	PredictedP50 float64 `json:"predicted_p50_s"`
	P50RelErr    float64 `json:"p50_rel_err"`
	MeasuredP99  float64 `json:"measured_p99_s"`
	PredictedP99 float64 `json:"predicted_p99_s"`
	P99RelErr    float64 `json:"p99_rel_err"`
}

// AccuracyReport is the sim-vs-real comparison over one captured trace.
type AccuracyReport struct {
	Requests int `json:"requests"`
	// Matched counts requests present (and error-free) on both sides.
	Matched   int        `json:"matched"`
	Queue     StageError `json:"queue"`
	Inference StageError `json:"inference"`
	EndToEnd  StageError `json:"end_to_end"`
}

// Budget is the documented error budget the calibration gate enforces on
// the end-to-end latency percentiles (docs/CALIBRATION.md).
type Budget struct {
	P50 float64
	P99 float64
}

// CalibrationBudget is the documented accuracy budget `make calib-gate`
// enforces: the calibrated simulator's end-to-end latency percentiles must
// land within 35% (P50) / 50% (P99) of the measured run. Keep this in sync
// with docs/CALIBRATION.md.
var CalibrationBudget = Budget{P50: 0.35, P99: 0.50}

// Check returns an error when the end-to-end prediction error exceeds the
// budget.
func (r *AccuracyReport) Check(b Budget) error {
	if r.Matched == 0 {
		return fmt.Errorf("replay: no matched requests to compare")
	}
	if r.EndToEnd.P50RelErr > b.P50 {
		return fmt.Errorf("replay: end-to-end P50 prediction error %.1f%% exceeds budget %.1f%% (measured %.3fs, predicted %.3fs)",
			100*r.EndToEnd.P50RelErr, 100*b.P50, r.EndToEnd.MeasuredP50, r.EndToEnd.PredictedP50)
	}
	if r.EndToEnd.P99RelErr > b.P99 {
		return fmt.Errorf("replay: end-to-end P99 prediction error %.1f%% exceeds budget %.1f%% (measured %.3fs, predicted %.3fs)",
			100*r.EndToEnd.P99RelErr, 100*b.P99, r.EndToEnd.MeasuredP99, r.EndToEnd.PredictedP99)
	}
	return nil
}

// Compare matches the capture's measured outcomes against the simulator's
// predicted request stats by trace ID and reports percentile prediction
// error for the queue, inference, and end-to-end intervals.
func Compare(c *Capture, res *cluster.Result) (*AccuracyReport, error) {
	pred := make(map[int]batching.RequestStat, len(res.Stats))
	for _, s := range res.Stats {
		pred[s.ID] = s
	}
	var mQueue, mInfer, mTotal, pQueue, pInfer, pTotal obs.Dist
	matched := 0
	for _, m := range c.Requests {
		if m.Error {
			continue
		}
		p, ok := pred[m.ID]
		if !ok {
			continue
		}
		matched++
		mQueue.Add(m.QueueMS / 1e3)
		mInfer.Add(m.InferMS / 1e3)
		mTotal.Add(m.TotalMS / 1e3)
		pQueue.Add(p.Admit - p.Arrival)
		pInfer.Add(p.Finish - p.Admit)
		pTotal.Add(p.Complete - p.Arrival)
	}
	if matched == 0 {
		return nil, fmt.Errorf("replay: no matched requests between capture (%d) and prediction (%d)",
			len(c.Requests), len(res.Stats))
	}
	return &AccuracyReport{
		Requests:  len(c.Requests),
		Matched:   matched,
		Queue:     stageError(&mQueue, &pQueue),
		Inference: stageError(&mInfer, &pInfer),
		EndToEnd:  stageError(&mTotal, &pTotal),
	}, nil
}

func stageError(measured, predicted *obs.Dist) StageError {
	e := StageError{
		MeasuredP50:  measured.P50(),
		PredictedP50: predicted.P50(),
		MeasuredP99:  measured.P99(),
		PredictedP99: predicted.P99(),
	}
	e.P50RelErr = relErr(e.PredictedP50, e.MeasuredP50)
	e.P99RelErr = relErr(e.PredictedP99, e.MeasuredP99)
	return e
}

func relErr(pred, meas float64) float64 {
	if meas <= 0 {
		return 0
	}
	return math.Abs(pred-meas) / meas
}
