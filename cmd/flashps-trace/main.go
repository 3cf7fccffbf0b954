// Command flashps-trace inspects, synthesizes, and simulates image-editing
// workload traces: the mask-ratio distributions of Fig 3, Poisson request
// traces for the serving experiments, and instrumented discrete-event
// simulations of a cluster serving those traces.
//
// Usage:
//
//	flashps-trace -stats                          # Fig 3 distribution stats
//	flashps-trace -gen -n 1000 -rps 2 -dist public -o trace.json
//	flashps-trace -inspect trace.json             # summarize a trace file
//	flashps-trace -sim -n 200 -rps 6 -workers 3 -obs-out obs/
//	flashps-trace -explain 29b41705a29c -in obs/flightrecorder.json
//
// -explain renders one request's causal span tree from a telemetry
// artifact: a flightrecorder.json snapshot or a Chrome trace.json export
// (either the -obs-out files or the live server's /debug/* endpoints
// saved to disk).
//
// -sim replays the generated trace through the discrete-event simulator
// with a full telemetry plane bound to the virtual clock; -obs-out writes
// the plane's four artifacts (metrics.prom, trace.json, profile.jsonl,
// flightrecorder.json) with virtual timestamps — the same renderings the
// live serving plane writes or exposes over HTTP, produced from pure
// simulation.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"

	"flashps/internal/batching"
	"flashps/internal/cluster"
	"flashps/internal/experiments"
	"flashps/internal/fleet"
	"flashps/internal/obs"
	"flashps/internal/perfmodel"
	"flashps/internal/tensor"
	"flashps/internal/workload"
)

func main() {
	var (
		stats    = flag.Bool("stats", false, "print Fig 3 mask-ratio distribution statistics")
		gen      = flag.Bool("gen", false, "generate a synthetic trace")
		inspect  = flag.String("inspect", "", "summarize a trace JSON file")
		sim      = flag.Bool("sim", false, "simulate a cluster serving the generated trace")
		n        = flag.Int("n", 1000, "requests to generate")
		rps      = flag.Float64("rps", 1, "Poisson arrival rate")
		dist     = flag.String("dist", "production", "mask distribution: production|public|viton")
		tpls     = flag.Int("templates", 16, "distinct templates")
		seed     = flag.Uint64("seed", 1, "random seed")
		out      = flag.String("o", "", "output file (default stdout)")
		par      = flag.Int("par", runtime.GOMAXPROCS(0), "kernel worker parallelism (1 = serial)")
		workers  = flag.Int("workers", 3, "sim: worker replicas")
		maxBatch = flag.Int("maxbatch", 0, "sim: batch-size cap (0 = profile default)")
		disc     = flag.String("batching", "disaggregated-cb", "sim: static|strawman-cb|disaggregated-cb")
		policy   = flag.String("policy", "mask-aware", "sim: round-robin|least-requests|least-tokens|mask-aware")
		profile  = flag.String("profile", "sd21", "sim: model/GPU profile name")
		cold     = flag.Int("cold", 0, "sim: per-worker host cache capacity in templates (0 = all warm)")
		obsOut   = flag.String("obs-out", "", "sim: directory for metrics.prom, trace.json, profile.jsonl, flightrecorder.json")

		router      = flag.String("router", "", "sim: fleet router (least-loaded|affinity) — arms the fleet pipeline")
		replicas    = flag.Int("replicas", 0, "sim: initially active fleet replicas (0 = -workers)")
		maxReplicas = flag.Int("max-replicas", 0, "sim: fleet replica pool ceiling (0 = -replicas)")
		autoscale   = flag.Bool("autoscale", false, "sim: arm the SLO-driven autoscaler")

		explain = flag.String("explain", "", "render the span tree of this trace id (12 hex digits) from -in")
		in      = flag.String("in", "", "explain: artifact file — flightrecorder.json or Chrome trace.json")
	)
	flag.Parse()
	tensor.SetParallelism(*par)

	switch {
	case *stats:
		tables, err := experiments.Run("fig3", experiments.Options{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			fmt.Println(t.Format())
		}
	case *gen:
		d, err := distByName(*dist)
		if err != nil {
			fatal(err)
		}
		reqs, err := workload.Generate(workload.TraceConfig{
			N: *n, RPS: *rps, Dist: d, Templates: *tpls, ZipfS: 1.1, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := workload.SaveTrace(*out, reqs); err != nil {
				fatal(err)
			}
		} else if err := workload.WriteTrace(os.Stdout, reqs); err != nil {
			fatal(err)
		}
	case *inspect != "":
		reqs, err := workload.LoadTrace(*inspect)
		if err != nil {
			fatal(err)
		}
		var ratios obs.Dist
		for _, r := range reqs {
			ratios.Add(r.MaskRatio)
		}
		s := workload.Summarize(reqs)
		fmt.Printf("requests: %d\n", s.Requests)
		fmt.Printf("duration: %.1fs (%.2f rps)\n", s.Duration, s.MeanRPS)
		fmt.Printf("mask ratio: %s\n", ratios.Summary())
		fmt.Printf("templates: %d distinct; hottest %d serves %.0f%% of requests\n",
			s.Templates, s.TopTemplate, s.TopShare*100)
	case *explain != "":
		if err := runExplain(*explain, *in); err != nil {
			fatal(err)
		}
	case *sim:
		if err := runSim(simFlags{
			n: *n, rps: *rps, dist: *dist, templates: *tpls, seed: *seed,
			workers: *workers, maxBatch: *maxBatch, batching: *disc,
			policy: *policy, profile: *profile, cold: *cold, obsOut: *obsOut,
			router: *router, replicas: *replicas, maxReplicas: *maxReplicas,
			autoscale: *autoscale,
		}); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

type simFlags struct {
	n                 int
	rps               float64
	dist              string
	templates         int
	seed              uint64
	workers, maxBatch int
	batching          string
	policy            string
	profile           string
	cold              int
	obsOut            string

	router                string
	replicas, maxReplicas int
	autoscale             bool
}

// runSim drives the discrete-event simulator with a telemetry plane bound
// to the virtual clock and prints the run's headline numbers.
func runSim(f simFlags) error {
	d, err := distByName(f.dist)
	if err != nil {
		return err
	}
	prof, err := perfmodel.ProfileByName(f.profile)
	if err != nil {
		return err
	}
	disc, err := batchingByName(f.batching)
	if err != nil {
		return err
	}
	pol, err := policyByName(f.policy)
	if err != nil {
		return err
	}
	reqs, err := workload.Generate(workload.TraceConfig{
		N: f.n, RPS: f.rps, Dist: d, Templates: f.templates, ZipfS: 1.1, Seed: f.seed,
	})
	if err != nil {
		return err
	}
	plane := obs.NewPlane(obs.PlaneConfig{})
	cfg := cluster.Config{
		Batching:           disc,
		Policy:             pol,
		Workers:            f.workers,
		Profile:            prof,
		MaxBatch:           f.maxBatch,
		ColdCacheTemplates: f.cold,
		Seed:               f.seed,
		Obs:                plane,
	}
	var res *cluster.Result
	if f.router != "" {
		rk, err := fleet.ParseRouter(f.router)
		if err != nil {
			return err
		}
		fres, err := cluster.RunFleet(cfg, fleet.Config{
			Router:      rk,
			Replicas:    f.replicas,
			MaxReplicas: f.maxReplicas,
			Autoscale:   fleet.AutoscaleConfig{Enabled: f.autoscale},
		}, reqs)
		if err != nil {
			return err
		}
		res = &fres.Result
		var ups, downs int
		for _, e := range fres.Events {
			switch e.Kind {
			case fleet.EventScaleUp:
				ups++
			case fleet.EventScaleDown:
				downs++
			}
		}
		fmt.Printf("fleet: router %s, %d rejected, %d scale-ups, %d scale-downs\n",
			f.router, fres.Rejected, ups, downs)
	} else {
		r, err := cluster.Run(cfg, reqs)
		if err != nil {
			return err
		}
		res = r
	}
	attained, total := plane.SLO.Counts()
	fmt.Printf("simulated %d requests over %d workers (%s, %s, %s)\n",
		len(reqs), f.workers, prof.Name, disc, pol)
	fmt.Printf("makespan: %.2fs virtual  mean batch: %.2f\n",
		res.Makespan, res.MeanBatchSize())
	fmt.Printf("slo attainment: %.3f (%d/%d)  goodput: %.2f rps  steps: %.0f\n",
		plane.SLO.Attainment(), attained, total,
		float64(attained)/res.Makespan, plane.StepsTotal())
	if f.obsOut != "" {
		if err := plane.WriteArtifacts(f.obsOut); err != nil {
			return err
		}
		fmt.Printf("wrote metrics.prom, trace.json, profile.jsonl, flightrecorder.json to %s\n", f.obsOut)
	}
	return nil
}

// runExplain renders one request's causal span tree from a telemetry
// artifact: it first tries the file as a flight-recorder snapshot, then
// as a Chrome trace_event export, and renders whichever parses.
func runExplain(traceArg, path string) error {
	trace, err := obs.ParseTraceID(traceArg)
	if err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("-explain needs -in <flightrecorder.json|trace.json>")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spans []obs.Span
	if snap, err := obs.ReadFlightSnapshot(bytes.NewReader(raw)); err == nil && len(snap.Spans) > 0 {
		spans = snap.Spans
	} else if spans, err = obs.SpansFromChromeJSON(bytes.NewReader(raw)); err != nil {
		return fmt.Errorf("%s is neither a flight-recorder snapshot nor a Chrome trace: %v", path, err)
	}
	return obs.RenderSpanTree(os.Stdout, spans, trace)
}

func distByName(name string) (workload.MaskDist, error) {
	for _, d := range workload.AllDists() {
		if d.Name == name {
			return d, nil
		}
	}
	return workload.MaskDist{}, fmt.Errorf("unknown distribution %q", name)
}

func batchingByName(name string) (cluster.Batching, error) {
	for _, b := range []cluster.Batching{
		cluster.BatchingStatic, cluster.BatchingStrawman, cluster.BatchingDisaggregated,
	} {
		if b.String() == name {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown batching discipline %q", name)
}

func policyByName(name string) (batching.Policy, error) {
	for _, p := range []batching.Policy{
		batching.RoundRobin, batching.LeastRequests, batching.LeastTokens, batching.MaskAware,
	} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flashps-trace: %v\n", err)
	os.Exit(1)
}
