// Command flashps-server runs the FlashPS serving plane: an HTTP frontend
// over worker replicas with mask-aware scheduling and disaggregated
// continuous batching, serving real mask-aware edits with the numeric
// engine.
//
// Quickstart:
//
//	flashps-server -addr :8005 -workers 2 &
//	curl -XPOST localhost:8005/v1/templates -d '{"template_id":1,"image_seed":7,"prompt":"studio photo"}'
//	curl -XPOST localhost:8005/v1/edits -d '{"template_id":1,"prompt":"a red dress","seed":3,"mask":{"type":"ratio","ratio":0.2,"seed":5}}'
//	curl localhost:8005/v1/stats
//
// Observability:
//
//	curl localhost:8005/metrics            # Prometheus text exposition
//	curl localhost:8005/healthz            # readiness JSON (503 when overloaded)
//	curl localhost:8005/debug/traces > t.json   # open in chrome://tracing / Perfetto
//	go tool pprof localhost:8005/debug/pprof/profile
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"

	"flashps/internal/batching"
	"flashps/internal/faults"
	"flashps/internal/fleet"
	"flashps/internal/model"
	"flashps/internal/perfmodel"
	"flashps/internal/serve"
	"flashps/internal/tensor"
)

func main() {
	var (
		addr      = flag.String("addr", ":8005", "listen address")
		workers   = flag.Int("workers", 2, "engine replicas")
		maxBatch  = flag.Int("max-batch", 4, "max running batch per worker")
		modelN    = flag.String("model", "sdxl-sim", "numeric model: sd21-sim|sdxl-sim|flux-sim")
		policy    = flag.String("policy", "mask-aware", "routing: round-robin|least-requests|least-tokens|mask-aware")
		batchDisc = flag.String("batching", "disagg", "batching discipline: static|strawman|disagg")
		seed      = flag.Uint64("seed", 42, "weight seed (shared across workers)")
		cacheDir  = flag.String("cache-dir", "", "disk tier for template caches (survives restarts)")
		maxQueue  = flag.Int("max-queue", 0, "per-worker admission limit (0 = unbounded)")
		par       = flag.Int("parallelism", runtime.NumCPU(), "goroutines for numeric kernels")
		traceRing = flag.Int("trace-ring", 0, "span trace ring capacity for /debug/traces (0 = default 65536)")
		flightDir = flag.String("flight-dir", "",
			"write flightrecorder.json here when an alert pages or a fault trips (empty = flight sink off)")
		noPprof = flag.Bool("no-pprof", false, "disable the /debug/pprof/ endpoints")

		maxRetries = flag.Int("max-retries", 0, "crash-retry budget per request (0 = default 2, negative disables)")
		retryBO    = flag.Duration("retry-backoff", 0, "base crash-retry backoff, capped at 8x (0 = default 25ms)")
		restartDly = flag.Duration("restart-delay", 0, "crashed worker loop restart delay (0 = default 50ms)")
		cacheTO    = flag.Duration("cache-load-timeout", 0, "degrade to full mode when the cache load exceeds this (0 = off)")
		faultSpec  = flag.String("faults", os.Getenv("FLASHPS_FAULTS"),
			`fault-injection spec, e.g. "worker.0.crash:after=20,fail=1;cache.load:prob=0.01" (default $FLASHPS_FAULTS)`)
		faultSeed = flag.Uint64("fault-seed", 1, "rng seed for probabilistic fault rules")

		stepPolicy = flag.String("step-policy", "",
			"default adaptive step-caching policy: off|block|layer|timestep|combined")
		stepPolicyByClass = flag.String("step-policy-by-class", "",
			`per-SLO-class step policies, e.g. "interactive=off,standard=layer,relaxed=combined"`)

		router = flag.String("router", "",
			"fleet request router: core|least-loaded|affinity (default: scheduler core places directly)")
		maxReplicas = flag.Int("max-replicas", 0,
			"replica pool ceiling for the autoscaler (0 = fixed fleet of -workers)")
		autoscale = flag.Bool("autoscale", false,
			"arm the SLO-driven autoscaler between -workers and -max-replicas")
		autoscaleInterval = flag.Float64("autoscale-interval", 0,
			"autoscaler tick period in seconds (0 = default 1s)")
		admitRate = flag.Float64("admit-rate", 0,
			"admission token-bucket refill rate in requests/s (0 = no rate limit)")
		admitBurst = flag.Float64("admit-burst", 0,
			"admission token-bucket burst (0 = same as -admit-rate)")
		admitMinServiceMS = flag.Float64("admit-min-service-ms", 0,
			"reject deadlines below this service floor at admission (0 = off)")
		stagedTemplates = flag.Int("staged-templates", 0,
			"per-replica staged-template LRU capacity (0 = staging off)")
	)
	flag.Parse()
	tensor.SetParallelism(*par)

	cfg, err := modelByName(*modelN)
	if err != nil {
		fatal(err)
	}
	pol, err := batching.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	disc, err := batching.ParseDiscipline(*batchDisc)
	if err != nil {
		fatal(err)
	}
	profile := perfmodel.SDXLPaper
	switch cfg.Name {
	case "sd21-sim":
		profile = perfmodel.SD21Paper
	case "flux-sim":
		profile = perfmodel.FluxPaper
	}

	var inj *faults.Injector
	if *faultSpec != "" {
		inj, err = faults.Parse(*faultSpec, *faultSeed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("WARN: fault injection armed: %s\n", *faultSpec)
	}

	classPolicies, err := parseClassPolicies(*stepPolicyByClass)
	if err != nil {
		fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Model: cfg, Profile: profile,
		Workers: *workers, MaxBatch: *maxBatch,
		Policy: pol, Discipline: disc, Seed: *seed,
		StepPolicy: *stepPolicy, StepPolicyByClass: classPolicies,
		CacheDir: *cacheDir, MaxQueue: *maxQueue,
		TraceRing:  *traceRing,
		FlightDir:  *flightDir,
		MaxRetries: *maxRetries, RetryBackoff: *retryBO,
		WorkerRestartDelay: *restartDly, CacheLoadTimeout: *cacheTO,
		Faults: inj,
		Router: *router, MaxReplicas: *maxReplicas,
		AdmitRate: *admitRate, AdmitBurst: *admitBurst,
		AdmitMinServiceMS: *admitMinServiceMS,
		StagedTemplates:   *stagedTemplates,
		Autoscale: fleet.AutoscaleConfig{
			Enabled:  *autoscale,
			Interval: *autoscaleInterval,
		},
	})
	if err != nil {
		fatal(err)
	}
	srv.Start()
	defer srv.Close()

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if !*noPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	fmt.Printf("INFO: FlashPS serving %s with %d workers (policy %s, batching %s) on %s\n",
		cfg.Name, *workers, pol, disc, *addr)
	if *router != "" || *autoscale || *admitRate > 0 || *admitMinServiceMS > 0 {
		pool := *workers
		if *maxReplicas > pool {
			pool = *maxReplicas
		}
		fmt.Printf("INFO: fleet plane armed: router %q, pool %d, autoscale %v (GET /v1/fleet)\n",
			routerOrCore(*router), pool, *autoscale)
	}
	endpoints := "/metrics /healthz /debug/traces"
	if !*noPprof {
		endpoints += " /debug/pprof/"
	}
	fmt.Printf("INFO: observability: %s\n", endpoints)
	if err := http.ListenAndServe(*addr, mux); err != nil {
		fatal(err)
	}
}

func routerOrCore(name string) string {
	if name == "" {
		return "core"
	}
	return name
}

func modelByName(name string) (model.Config, error) {
	for _, c := range model.AllSimConfigs() {
		if c.Name == name {
			return c, nil
		}
	}
	return model.Config{}, fmt.Errorf("unknown model %q", name)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flashps-server: %v\n", err)
	os.Exit(1)
}

// parseClassPolicies parses "class=policy,class=policy" into the serve
// config's per-SLO-class step-policy map.
func parseClassPolicies(spec string) (map[string]string, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(spec, ",") {
		class, policy, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || class == "" {
			return nil, fmt.Errorf("bad step-policy-by-class entry %q (want class=policy)", pair)
		}
		out[class] = policy
	}
	return out, nil
}
