package serve

import (
	"context"
	"sort"
	"sync"
	"time"

	"flashps/internal/obs"
	"flashps/internal/tensor"
	"flashps/internal/workload"
)

// LoadGenConfig parameterizes an open-loop load generation run against a
// Server: requests are fired at their trace arrival times regardless of
// completion (the paper's Poisson workload, §6.1).
type LoadGenConfig struct {
	// RPS is the Poisson arrival rate.
	RPS float64
	// N is the number of requests.
	N int
	// Dist draws the mask ratios.
	Dist workload.MaskDist
	// Templates are the prepared template ids to draw from (Zipf-ish by
	// order: earlier ids are hotter).
	Templates []uint64
	// TimeScale compresses virtual trace time onto the wall clock
	// (e.g. 0.01 runs a 100 s trace in 1 s). 0 means 1.
	TimeScale float64
	// Seed drives the trace randomness.
	Seed uint64
	// DeadlineMS, when > 0, attaches a per-request deadline so the run
	// exercises the deadline/eviction path (e.g. combined with an armed
	// fault injector on the server).
	DeadlineMS int64
}

// RequestOutcome is one request's measured result in an open-loop run,
// matched to its trace entry by ID so a captured run can be replayed
// through the simulator and compared request-for-request.
type RequestOutcome struct {
	ID        int
	Arrival   float64 // trace arrival, virtual seconds
	MaskRatio float64
	Worker    int
	TotalMS   float64
	QueueMS   float64
	InferMS   float64
	Error     bool
}

// LoadGenResult aggregates an open-loop run. In-flight request goroutines
// fill it under the run's internal lock; it is safe to read once RunLoad
// returns.
type LoadGenResult struct {
	Total  obs.Dist // total latency, ms
	Queue  obs.Dist // queue time, ms
	Errors int
	// Degraded and Retried count completed requests that fell back to full
	// compute or were re-executed after a worker crash.
	Degraded int
	Retried  int
	Elapsed  time.Duration
	// Trace is the generated workload trace the run fired, in virtual
	// (unscaled) trace time — the input a simulator replay needs.
	Trace []workload.Request
	// Requests are the per-request outcomes, sorted by trace ID.
	Requests []RequestOutcome
	// OfferedRPS is the realized offered rate: requests per second of
	// scaled trace span (what the server actually saw, as opposed to the
	// configured Poisson rate).
	OfferedRPS float64
}

// RunLoad fires the configured open-loop workload at the server and waits
// for every request to complete.
func RunLoad(ctx context.Context, srv *Server, cfg LoadGenConfig) (*LoadGenResult, error) {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if len(cfg.Templates) == 0 {
		cfg.Templates = []uint64{1}
	}
	reqs, err := workload.Generate(workload.TraceConfig{
		N: cfg.N, RPS: cfg.RPS, Dist: cfg.Dist,
		Templates: len(cfg.Templates), ZipfS: 1.1, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	res := &LoadGenResult{Trace: reqs}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	rng := tensor.NewRNG(cfg.Seed ^ 0x10AD)
	for _, r := range reqs {
		r := r
		// Open loop: sleep to the request's (scaled) arrival time.
		at := time.Duration(r.Arrival * cfg.TimeScale * float64(time.Second))
		if wait := at - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				wg.Wait()
				return res, ctx.Err()
			}
		}
		wg.Add(1)
		maskSeed := rng.Uint64()
		go func() {
			defer wg.Done()
			resp, err := srv.SubmitEdit(ctx, EditRequestAPI{
				TemplateID: cfg.Templates[int(r.Template-1)%len(cfg.Templates)],
				Prompt:     "load",
				Seed:       uint64(r.ID),
				Mask:       MaskSpec{Type: "ratio", Ratio: r.MaskRatio, Seed: maskSeed},
				DeadlineMS: cfg.DeadlineMS,
			})
			if err != nil {
				mu.Lock()
				res.Errors++
				res.Requests = append(res.Requests, RequestOutcome{
					ID: r.ID, Arrival: r.Arrival, MaskRatio: r.MaskRatio,
					Error: true,
				})
				mu.Unlock()
				return
			}
			mu.Lock()
			if resp.Degraded {
				res.Degraded++
			}
			if resp.Retries > 0 {
				res.Retried++
			}
			res.Requests = append(res.Requests, RequestOutcome{
				ID: r.ID, Arrival: r.Arrival, MaskRatio: r.MaskRatio,
				Worker: resp.Worker, TotalMS: resp.TotalMS,
				QueueMS: resp.QueueMS, InferMS: resp.InferenceMS,
			})
			res.Total.Add(resp.TotalMS)
			res.Queue.Add(resp.QueueMS)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	sort.Slice(res.Requests, func(i, j int) bool { return res.Requests[i].ID < res.Requests[j].ID })
	if span := reqs[len(reqs)-1].Arrival * cfg.TimeScale; span > 0 {
		res.OfferedRPS = float64(len(reqs)) / span
	}
	return res, nil
}
