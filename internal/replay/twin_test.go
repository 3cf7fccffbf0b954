package replay

import (
	"path/filepath"
	"testing"

	"flashps/internal/batching"
	"flashps/internal/cluster"
	"flashps/internal/model"
	"flashps/internal/perfmodel"
	"flashps/internal/workload"
)

// twinModel keeps the engine math real but small enough that a capture
// is paced by its arrivals, not by the engine.
var twinModel = model.Config{
	Name: "twin", LatentH: 8, LatentW: 8, Hidden: 64,
	NumBlocks: 4, FFNMult: 4, Steps: 8, LatentChannels: 4,
}

// captureForTest captures n requests at 40 rps.
func captureForTest(t *testing.T, n int) *Capture {
	t.Helper()
	cap, err := CaptureServe(CaptureConfig{
		Model:      twinModel,
		Scoring:    perfmodel.SD21Paper,
		Workers:    2,
		MaxBatch:   4,
		Policy:     batching.MaskAware,
		Discipline: cluster.BatchingDisaggregated,
		Seed:       7,
		N:          n,
		RPS:        40,
		Dist:       workload.ProductionTrace,
		Templates:  4,
	})
	if err != nil {
		t.Fatalf("CaptureServe: %v", err)
	}
	if cap.Errors > 0 {
		t.Fatalf("capture had %d request errors", cap.Errors)
	}
	return cap
}

// TestCalibrationGate is the sim-vs-real accuracy gate (`make calib-gate`):
// capture an instrumented live run, fit a coefficient set from its cost
// samples, replay the identical trace through the calibrated simulator,
// and require the end-to-end latency prediction to land inside the
// documented budget. The capture is 300 requests, so the budgeted P99 is
// the 297th latency: four host stalls miss it, where at 100 requests two
// did. Under the race detector (`make race`) the whole loop
// still runs — capture, fit, predict, compare — but the budget, a
// wall-clock P99 of a server slowed several-fold and unevenly, is reported
// and not asserted: it missed there one to three runs in eight at every
// commit, whatever the change.
func TestCalibrationGate(t *testing.T) {
	cap := captureForTest(t, 300)
	coeffs, err := cap.Fit()
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if err := coeffs.Validate(); err != nil {
		t.Fatalf("fitted coefficients invalid: %v", err)
	}
	if coeffs.StepPerFLOP <= 0 && coeffs.StepPerUnit <= 0 {
		t.Fatalf("degenerate step law: %+v", coeffs)
	}
	stepFit := coeffs.Fits["denoise_step"]
	t.Logf("fit: %d step samples, R²=%.3f, residual=%.3f; overheads=%+v",
		stepFit.Samples, stepFit.R2, stepFit.Residual, coeffs.Overheads)

	res, err := Predict(cap, coeffs, nil)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	rep, err := Compare(cap, res)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	t.Logf("end-to-end: measured P50=%.3fs P99=%.3fs, predicted P50=%.3fs P99=%.3fs (err %.1f%% / %.1f%%)",
		rep.EndToEnd.MeasuredP50, rep.EndToEnd.MeasuredP99,
		rep.EndToEnd.PredictedP50, rep.EndToEnd.PredictedP99,
		100*rep.EndToEnd.P50RelErr, 100*rep.EndToEnd.P99RelErr)
	t.Logf("queue: measured P50=%.4fs predicted P50=%.4fs; inference: measured P50=%.4fs predicted P50=%.4fs",
		rep.Queue.MeasuredP50, rep.Queue.PredictedP50,
		rep.Inference.MeasuredP50, rep.Inference.PredictedP50)
	if rep.Matched < cap.Trace[len(cap.Trace)-1].ID {
		t.Logf("matched %d of %d requests", rep.Matched, len(cap.Trace))
	}
	if err := rep.Check(CalibrationBudget); err != nil {
		if !raceDetector {
			t.Fatal(err)
		}
		t.Logf("not asserted under the race detector: %v", err)
	}
}

// TestCoefficientsRoundTrip pins the serialization contract the what-if CLI
// depends on: save → load preserves the model and validation passes.
func TestCoefficientsRoundTrip(t *testing.T) {
	cap := captureForTest(t, 100)
	coeffs, err := cap.Fit()
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	path := filepath.Join(t.TempDir(), "coeffs.json")
	if err := perfmodel.SaveCoefficients(path, coeffs); err != nil {
		t.Fatalf("SaveCoefficients: %v", err)
	}
	loaded, err := perfmodel.LoadCoefficients(path)
	if err != nil {
		t.Fatalf("LoadCoefficients: %v", err)
	}
	if loaded.StepPerFLOP != coeffs.StepPerFLOP || loaded.StepPerUnit != coeffs.StepPerUnit {
		t.Fatalf("step law changed in round trip: %+v vs %+v", loaded, coeffs)
	}
	if loaded.Scoring != cap.Scoring || loaded.Seed != cap.Seed {
		t.Fatalf("scheduler identity lost: %q/%d", loaded.Scoring, loaded.Seed)
	}
	// A loaded set must drive the same prediction as the fresh one.
	a, err := Predict(cap, coeffs, nil)
	if err != nil {
		t.Fatalf("Predict(fresh): %v", err)
	}
	b, err := Predict(cap, loaded, nil)
	if err != nil {
		t.Fatalf("Predict(loaded): %v", err)
	}
	if a.Makespan != b.Makespan || len(a.Stats) != len(b.Stats) {
		t.Fatalf("prediction diverged after round trip: %.6f vs %.6f", a.Makespan, b.Makespan)
	}
}
