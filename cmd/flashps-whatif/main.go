// Command flashps-whatif answers capacity questions from a calibrated cost
// model in seconds, no server required: it loads a telemetry-fitted
// coefficient set (docs/CALIBRATION.md), generates the hypothetical
// workload, and replays it through the calibrated discrete-event
// simulator — the same batching core and the same Algorithm-2 scoring
// estimator the live server runs, with every duration supplied by the
// fitted step law and overheads. The output is a benchfmt.ServeResult
// with "predicted": true:
//
//	flashps-whatif -coeffs BENCH_calib.json -rate 1400 -requests 500 -o -
//	flashps-whatif -coeffs BENCH_calib.json -workers 8 -rate 4000
//
// With -capture it produces such a set instead: it serves the same
// workload shape on an in-process server (real engines on a small model),
// fits the coefficients from the run's cost samples and writes them
// (`make calib`):
//
//	flashps-whatif -capture BENCH_calib.json -workers 4
//
// With -drift-base it instead acts as the recalibration gate: compare the
// -coeffs set against a baseline fit and exit non-zero when any coefficient's
// symmetric relative delta exceeds -drift-threshold (or the engine profiles
// are not comparable at all):
//
//	flashps-whatif -coeffs BENCH_calib.json -drift-base BENCH_calib_golden.json -drift-threshold 0.15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"flashps/internal/batching"
	"flashps/internal/benchfmt"
	"flashps/internal/cluster"
	"flashps/internal/model"
	"flashps/internal/obs"
	"flashps/internal/perfmodel"
	"flashps/internal/replay"
	"flashps/internal/workload"
)

// captureModel is the engine a -capture run serves: real denoising math,
// small enough that 500 requests take about half a second. Its name stays
// the one of the bench that first fitted this shape, so earlier sets remain
// comparable under -drift-base.
var captureModel = model.Config{
	Name: "servebench", LatentH: 6, LatentW: 6, Hidden: 32,
	NumBlocks: 3, FFNMult: 4, Steps: 5, LatentChannels: 4,
}

func main() {
	var (
		coeffsPath = flag.String("coeffs", "BENCH_calib.json", "fitted coefficient set (perfmodel.Coefficients JSON)")
		n          = flag.Int("n", 500, "requests to simulate")
		rps        = flag.Float64("rps", 1400, "hypothetical offered arrival rate (requests/s)")
		workers    = flag.Int("workers", 2, "hypothetical engine replicas")
		maxBatch   = flag.Int("maxbatch", 4, "running-batch cap per worker")
		templates  = flag.Int("templates", 4, "distinct templates in the workload")
		seed       = flag.Uint64("seed", 42, "trace seed")
		discipline = flag.String("discipline", "disagg", "batching discipline: static|strawman|disagg")
		policy     = flag.String("policy", "mask-aware", "routing policy: round-robin|least-requests|least-tokens|mask-aware")
		out        = flag.String("o", "-", "output JSON file (- for stdout)")
		capture    = flag.String("capture", "",
			"serve the workload on an in-process server, fit a coefficient set from its telemetry and write it here instead of simulating")

		driftBase = flag.String("drift-base", "",
			"baseline coefficient set: compare -coeffs against it and exit 1 on drift instead of simulating")
		driftThreshold = flag.Float64("drift-threshold", 0.15,
			"max tolerated symmetric relative delta per coefficient in -drift-base mode")
	)
	flag.IntVar(n, "requests", 500, "alias for -n")
	flag.Float64Var(rps, "rate", 1400, "alias for -rps")
	flag.Parse()

	if *driftBase != "" {
		if err := runDrift(*driftBase, *coeffsPath, *driftThreshold); err != nil {
			fatal(err)
		}
		return
	}

	b, pol, err := parseShape(*discipline, *policy)
	if err != nil {
		fatal(err)
	}
	if *capture != "" {
		err := runCapture(*capture, replay.CaptureConfig{
			Model: captureModel, Scoring: perfmodel.SD21Paper,
			Workers: *workers, MaxBatch: *maxBatch, PreWorkers: 2, PostWorkers: 2,
			Policy: pol, Discipline: b, Seed: *seed,
			N: *n, RPS: *rps, Dist: workload.ProductionTrace, Templates: *templates,
		})
		if err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(*coeffsPath, *n, *rps, *workers, *maxBatch, *templates, *seed, b, pol)
	if err != nil {
		fatal(err)
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: predicted P50 %.1fms  P99 %.1fms  goodput %.2f rps  slo %.3f  batch %.2f\n",
			*out, res.P50MS, res.P99MS, res.GoodputRPS, res.SLOAttainment, res.MeanBatchSize)
	}
}

// parseShape reads the -discipline and -policy flags.
func parseShape(disciplineName, policyName string) (cluster.Batching, batching.Policy, error) {
	disc, err := batching.ParseDiscipline(disciplineName)
	if err != nil {
		return 0, 0, err
	}
	b := cluster.BatchingDisaggregated
	switch disc {
	case batching.Static:
		b = cluster.BatchingStatic
	case batching.StrawmanCB:
		b = cluster.BatchingStrawman
	}
	pol, err := batching.ParsePolicy(policyName)
	return b, pol, err
}

// runCapture is replay.CaptureServe → Capture.Fit → SaveCoefficients: the
// coefficient set every other mode reads.
func runCapture(path string, cfg replay.CaptureConfig) error {
	c, err := replay.CaptureServe(cfg)
	if err != nil {
		return err
	}
	coeffs, err := c.Fit()
	if err != nil {
		return fmt.Errorf("calibration fit: %w", err)
	}
	if err := perfmodel.SaveCoefficients(path, coeffs); err != nil {
		return err
	}
	fit := coeffs.Fits["denoise_step"]
	fmt.Printf("wrote %s: %d requests (%d errors) in %.2fs, %d step samples, R² %.3f, residual %.3f\n",
		path, len(c.Trace), c.Errors, c.ElapsedS, fit.Samples, fit.R2, fit.Residual)
	return nil
}

func run(coeffsPath string, n int, rps float64, workers, maxBatch, templates int,
	seed uint64, b cluster.Batching, pol batching.Policy) (*benchfmt.ServeResult, error) {
	coeffs, err := perfmodel.LoadCoefficients(coeffsPath)
	if err != nil {
		return nil, err
	}

	reqs, err := workload.Generate(workload.TraceConfig{
		N: n, RPS: rps, Dist: workload.ProductionTrace,
		Templates: templates, ZipfS: 1.1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}

	plane := obs.NewPlane(obs.PlaneConfig{})
	cfg := cluster.Config{
		System:   cluster.SystemFlashPS,
		Batching: b,
		Policy:   pol,
		Workers:  workers,
		Profile:  coeffs.Profile,
		MaxBatch: maxBatch,
		Seed:     seed,
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
	res, err := cluster.Run(cfg, reqs)
	if err != nil {
		return nil, err
	}

	lat := res.Latencies()
	queue := res.QueueTimes()
	attained, _ := plane.SLO.Counts()
	elapsed := res.Makespan
	offered := rps
	if last := reqs[len(reqs)-1].Arrival; last > 0 {
		offered = float64(len(reqs)) / last
	}
	return &benchfmt.ServeResult{
		Meta:          benchfmt.CollectMeta(),
		Predicted:     true,
		Model:         coeffs.Profile.Name,
		Requests:      n,
		Workers:       workers,
		OfferedRPS:    offered,
		ElapsedS:      elapsed,
		P50MS:         lat.Quantile(0.50) * 1e3,
		P95MS:         lat.Quantile(0.95) * 1e3,
		P99MS:         lat.Quantile(0.99) * 1e3,
		MeanMS:        lat.Mean() * 1e3,
		QueueP99MS:    queue.Quantile(0.99) * 1e3,
		ThroughputRPS: float64(len(res.Stats)) / elapsed,
		GoodputRPS:    float64(attained) / elapsed,
		SLOAttainment: plane.SLO.Attainment(),
		StepsTotal:    plane.StepsTotal(),
		StepsPerSec:   plane.StepsTotal() / elapsed,
		MeanBatchSize: res.MeanBatchSize(),
	}, nil
}

// runDrift is the recalibration gate (docs/CALIBRATION.md): it compares
// the fitted set at otherPath against the baseline at basePath and exits
// non-zero when the drift report trips the threshold. The full report goes
// to stdout either way, worst coefficient first in the summary line.
func runDrift(basePath, otherPath string, threshold float64) error {
	base, err := perfmodel.LoadCoefficients(basePath)
	if err != nil {
		return err
	}
	other, err := perfmodel.LoadCoefficients(otherPath)
	if err != nil {
		return err
	}
	report := perfmodel.Drift(base, other)
	if report.ProfileMismatch {
		fmt.Printf("DRIFT: engine profiles differ (%s vs %s) — coefficient sets are not comparable\n",
			base.Profile.Name, other.Profile.Name)
	}
	for _, e := range report.Entries {
		marker := "  "
		if e.RelDelta > threshold {
			marker = "!!"
		}
		fmt.Printf("%s %-30s base %-12.6g other %-12.6g delta %.3f\n",
			marker, e.Name, e.Base, e.Other, e.RelDelta)
	}
	if report.Exceeds(threshold) {
		fmt.Printf("DRIFT: max delta %.3f at %s exceeds threshold %.3f — refit the baseline (docs/CALIBRATION.md)\n",
			report.Max, report.MaxName, threshold)
		os.Exit(1)
	}
	fmt.Printf("OK: max delta %.3f at %s within threshold %.3f\n", report.Max, report.MaxName, threshold)
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flashps-whatif: %v\n", err)
	os.Exit(1)
}
