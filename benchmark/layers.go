package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"flashps/internal/batching"
	"flashps/internal/cache"
	"flashps/internal/diffusion"
	"flashps/internal/fleet"
	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/obs"
	"flashps/internal/perfmodel"
	"flashps/internal/serve"
	"flashps/internal/tensor"
)

// loadLayers fills the per-layer metrics that come from the loaded passes:
// response fields of the window's edits, and differences of the server's
// counters across the window.
func loadLayers(out map[string]float64, h *harness, passes []pass, before, after counters) {
	var (
		lat, late, queue, infer, overhead []float64
		seconds                           float64
		degraded, retried, backlog        int
	)
	for _, p := range passes {
		seconds += p.Elapsed.Seconds()
		late = append(late, p.LateMS...)
		backlog = p.Backlog
		for _, o := range p.Ops {
			if o.Kind != "edit" || !o.OK {
				continue
			}
			lat = append(lat, ms(o.latency()))
			queue = append(queue, o.Edit.QueueMS)
			infer = append(infer, o.Edit.InferenceMS)
			overhead = append(overhead, ms(o.End-o.Start)-o.Edit.QueueMS-o.Edit.InferenceMS)
			if o.Edit.Degraded {
				degraded++
			}
			if o.Edit.Retries > 0 {
				retried++
			}
		}
	}
	delta := func(series string) float64 { return after.metrics[series] - before.metrics[series] }
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	out["loadgen.offered_rps"] = float64(len(lat)) / seconds // wall clock: RateRPS / host factor in an open loop
	out["loadgen.late_p99_ms"] = tail(late, 99)
	out["loadgen.late_max_ms"] = 0 // closed loops have no schedule to be late for
	if len(late) > 0 {
		out["loadgen.late_max_ms"] = slices.Max(late)
	}
	out["loadgen.backlog_end"] = float64(backlog)
	out["loadgen.edit_p95_ms"] = tail(lat, 95)
	out["loadgen.edit_p99_ms"] = tail(lat, 99)
	out["loadgen.edit_tail_samples"] = float64(len(lat))

	snap := h.srv.Snapshot()
	out["serve.overhead_p50_ms"] = median(overhead)
	out["serve.handoff_us"] = snap.HandoffUS
	out["serve.schedule_decision_us"] = snap.ScheduleDecisionUS
	out["serve.degraded"] = float64(degraded)
	out["serve.retried"] = float64(retried)

	out["batching.queue_wait_p50_ms"] = median(queue)
	out["batching.queue_wait_p95_ms"] = tail(queue, 95)
	out["batching.inference_p50_ms"] = median(infer)
	out["batching.mean_batch_size"] = share(delta("flashps_batch_occupancy_sum"), delta("flashps_batch_occupancy_count"))
	out["batching.decisions"] = float64(after.decisions - before.decisions)

	hits, misses := delta(`flashps_fleet_routes_total{affinity="hit"}`), delta(`flashps_fleet_routes_total{affinity="miss"}`)
	out["fleet.affinity_hit_share"] = share(hits, hits+misses)
	out["fleet.stagings"] = delta("flashps_replica_stagings_total")

	ramHits, ramMisses := delta("flashps_cache_hits"), delta("flashps_cache_misses")
	out["cache.ram_hit_share"] = share(ramHits, ramHits+ramMisses)
	out["cache.disk_promotions"] = delta("flashps_cache_disk_hits")
	out["cache.evictions"] = delta("flashps_cache_evictions")
	out["cache.dedup_ratio"] = after.metrics["flashps_cache_dedup_ratio"]

	out["diffusion.steps_total"] = delta("flashps_denoise_steps_total")
	out["diffusion.steps_per_s"] = out["diffusion.steps_total"] / seconds
	out["obs.spans_per_request"] = share(delta("flashps_trace_spans_total"), float64(len(lat)))
}

// replayStages are the layer-replay span names in request order; their
// medians are summed for trace.stage_sum_over_e2e.
var replayStages = []string{"replay", "serve.decode", "mask.build", "batching.place", "cache.get",
	"diffusion.begin", "diffusion.step", "diffusion.result", "img.encode_png", "serve.encode"}

// replayLayers executes the first n generated edits stage by stage through
// the layers' public functions on one goroutine, one span per call, serves
// each of them through the idle server as well, and compares the summed
// stage medians with the end-to-end median.
func replayLayers(out map[string]float64, h *harness, ref *reference, tr *tracer, n int) error {
	est, err := perfmodel.ServingEstimator(perfmodel.SD21Paper, engineSeed)
	if err != nil {
		return err
	}
	core := batching.NewCore(batching.CoreConfig{Policy: batching.MaskAware, Estimator: est,
		MaxBatch: maxBatch, Seed: engineSeed})
	store, err := cache.NewTieredStore(cache.TieredConfig{RAMBudget: 1 << 30})
	if err != nil {
		return err
	}
	defer store.Close()
	for i := 0; i < n; i++ {
		id := h.sched[i].API.TemplateID
		tc, err := ref.template(id)
		if err != nil {
			return err
		}
		if store.Get(id) == nil {
			if err := store.PutCost(id, tc, 0.1); err != nil {
				return err
			}
		}
	}
	views, ids := make([]batching.WorkerView, workers), make([]int, workers)
	for w := range ids {
		ids[w] = w
	}

	// Replay and served edit alternate, request by request, so that both
	// sides of the ratio see the same host: it changes speed every few
	// seconds.
	var (
		fail error
		e2e  []float64
	)
	for i := 0; i < n && fail == nil; i++ {
		body := h.sched[i].Body
		tr.around("replay", i, -1, func(root int) {
			var (
				api  serve.EditRequestAPI
				m    *mask.Mask
				tc   *diffusion.TemplateCache
				sess *diffusion.EditSession
				res  *diffusion.EditResult
				png  []byte
			)
			step := func(name string, fn func(self int) error) {
				if fail == nil {
					tr.around(name, i, root, func(self int) { fail = fn(self) })
				}
			}
			step("serve.decode", func(self int) error {
				if err := json.Unmarshal(body, &api); err != nil {
					return err
				}
				var err error
				tr.around("mask.build", i, self, func(int) {
					m, err = api.Mask.Build(engineModel.LatentH, engineModel.LatentW)
				})
				return err
			})
			step("batching.place", func(int) error {
				core.Place(views, ids, batching.Item{ID: uint64(i), MaskRatio: api.Mask.Ratio, Steps: engineModel.Steps})
				return nil
			})
			step("cache.get", func(int) error {
				tc, _ = store.GetTracked(api.TemplateID)
				store.Observe(api.TemplateID, m.Ratio())
				if tc == nil {
					return fmt.Errorf("replay: template %d missing", api.TemplateID)
				}
				return nil
			})
			step("diffusion.begin", func(int) (err error) {
				sess, err = ref.eng.BeginEdit(diffusion.EditRequest{Template: tc, Mask: m,
					Prompt: api.Prompt, Seed: api.Seed, Mode: diffusion.EditCachedY})
				return err
			})
			for done := false; !done && fail == nil; {
				step("diffusion.step", func(int) (err error) {
					done, err = sess.Step()
					return err
				})
			}
			step("diffusion.result", func(int) (err error) {
				res, err = sess.Result()
				return err
			})
			step("img.encode_png", func(int) (err error) {
				png, err = img.EncodePNG(res.Image)
				return err
			})
			step("serve.encode", func(int) error {
				return json.NewEncoder(new(bytes.Buffer)).Encode(serve.EditResponse{
					RequestID: uint64(i), MaskRatio: m.Ratio(), StepsComputed: res.StepsComputed,
					ImagePNG: png, Policy: "off", TraceID: obs.FormatTraceID(obs.TraceID(uint64(i))),
				})
			})
		})
		if fail != nil {
			break
		}
		if h.sp.ChurnEdits > 0 {
			if err := h.prepare(h.sched[i].API.TemplateID); err != nil { // reused after its first edit
				return err
			}
		}
		o := h.edit(i, time.Now(), -1)
		if !o.OK {
			return fmt.Errorf("layer replay: unloaded edit %d failed", i)
		}
		e2e = append(e2e, ms(o.End-o.Start))
	}
	if fail != nil {
		return fmt.Errorf("layer replay: %w", fail)
	}
	if h.sp.ChurnEdits > 0 {
		for i := 0; i < n; i += h.sp.ChurnEdits {
			h.do(http.MethodDelete, "/v1/templates/"+strconv.FormatUint(h.sched[i].API.TemplateID, 10), nil)
		}
	}

	med := stageMedians(tr.snapshot())
	var sum float64
	for _, name := range replayStages {
		sum += med[name]
	}
	out["trace.stage_sum_over_e2e"] = sum / median(e2e)
	out["serve.decode_us"] = (med["serve.decode"] + med["mask.build"]) * 1e3
	out["serve.encode_us"] = med["serve.encode"] * 1e3
	out["mask.build_us"] = med["mask.build"] * 1e3
	out["batching.place_ns"] = med["batching.place"] * 1e6
	out["cache.get_ram_us"] = med["cache.get"] * 1e3
	out["diffusion.begin_us"] = med["diffusion.begin"] * 1e3
	out["diffusion.result_us"] = med["diffusion.result"] * 1e3
	out["img.encode_png_us"] = med["img.encode_png"] * 1e3
	return nil
}

// opLayers times single operations of each layer in loops, on the shapes
// sd21-sim runs, while the server is idle. FLOP and byte counts are
// computed from those shapes, not measured.
func opLayers(out map[string]float64, h *harness, ref *reference, workdir string) error {
	cfg := engineModel
	L, H, F := cfg.Tokens(), cfg.Hidden, cfg.Hidden*cfg.FFNMult
	rng := tensor.NewRNG(7)
	tc, err := ref.template(h.sched[0].API.TemplateID)
	if err != nil {
		return err
	}

	// diffusion: one denoise step at fixed mask sizes, and the 1/m law.
	stepMS := func(tokens int) (float64, float64, error) {
		req := diffusion.EditRequest{Template: tc, Prompt: "p", Seed: 1, Mode: diffusion.EditFull}
		if tokens < L {
			req.Mode = diffusion.EditCachedY
			req.Mask = mask.Blob(tensor.NewRNG(uint64(tokens)), cfg.LatentH, cfg.LatentW, tokens)
		}
		var per []float64
		var allocs float64
		for rep := 0; rep < 2; rep++ {
			sess, err := ref.eng.BeginEdit(req)
			if err != nil {
				return 0, 0, err
			}
			var before, after runtime.MemStats
			for step, done := 0, false; !done; step++ {
				if step == 1 {
					runtime.ReadMemStats(&before) // the first step sizes the arena
				}
				t := time.Now()
				if done, err = sess.Step(); err != nil {
					return 0, 0, err
				}
				per = append(per, ms(time.Since(t)))
			}
			runtime.ReadMemStats(&after)
			allocs = float64(after.Mallocs-before.Mallocs) / float64(cfg.Steps-1)
		}
		return median(per), allocs, nil
	}
	for _, c := range []struct {
		name   string
		tokens int
	}{{"m05", 3}, {"m20", 13}, {"m50", 32}, {"full", L}} {
		v, allocs, err := stepMS(c.tokens)
		if err != nil {
			return err
		}
		out["diffusion.step_ms_"+c.name] = v
		if c.name == "m20" {
			out["diffusion.step_allocs"] = allocs
		}
	}
	out["diffusion.masked_speedup_m20"] = out["diffusion.step_ms_full"] / out["diffusion.step_ms_m20"]
	out["diffusion.prepare_ms"] = median(ref.prepareMS)

	// model: one block, full and masked at m = 0.20, and one forward pass.
	m, err := model.New(cfg, engineSeed)
	if err != nil {
		return err
	}
	blk, ws := m.Blocks[0], tensor.NewArena()
	x, cachedY := tensor.Randn(rng, L, H, 1), tensor.Randn(rng, L, H, 1)
	idx := mask.Blob(tensor.NewRNG(13), cfg.LatentH, cfg.LatentW, 13).MaskedIndices()
	M := len(idx)
	full := timeOp(func() { ws.Reset(); blk.ForwardWS(ws, x, nil, nil) })
	masked := timeOp(func() { ws.Reset(); blk.ForwardMaskedWS(ws, x, cachedY, nil, idx) })
	// Q/K/V/O projections, QK^T and AV, and the two FFN GEMMs, 2 FLOPs per MAC.
	fullFLOPs := float64(2 * L * H * (4*H + 2*L + 2*F))
	maskedFLOPs := float64(2 * (2*M*H*H + 2*L*H*H + 2*M*L*H + 2*M*H*F))
	out["model.block_full_us"] = full * 1e6
	out["model.block_masked_m20_us"] = masked * 1e6
	out["model.block_full_gflops"] = fullFLOPs / full / 1e9
	out["model.block_masked_m20_gflops"] = maskedFLOPs / masked / 1e9
	latent, cond := tensor.Randn(rng, L, cfg.LatentChannels, 1), model.EmbedPrompt("p", H)
	out["model.forward_step_ms"] = 1e3 * timeOp(func() {
		ws.Reset()
		if _, err := m.ForwardStep(latent, 5, cond, model.StepOptions{WS: ws}); err != nil {
			panic(err) // shapes are the model's own
		}
	})

	// tensor: the kernels a block is made of.
	a, w1, ff := tensor.Randn(rng, L, H, 1), tensor.Randn(rng, H, F, 1), tensor.New(L, F)
	out["tensor.matmul_gflops"] = float64(2*L*H*F) / timeOp(func() { tensor.MatMulInto(ff, a, w1) }) / 1e9
	q, k, v, att := tensor.Randn(rng, L, H, 1), tensor.Randn(rng, L, H, 1), tensor.Randn(rng, L, H, 1), tensor.New(L, H)
	out["tensor.attention_gflops"] = float64(4*L*L*H) /
		timeOp(func() { tensor.FusedAttentionInto(att, q, k, v, cfg.Heads, 0.25) }) / 1e9
	scores := tensor.Randn(rng, L, L, 1)
	out["tensor.softmax_ns_row"] = 1e9 * timeOp(func() { tensor.SoftmaxRows(scores) }) / float64(L)
	gamma, beta := make([]float32, H), make([]float32, H)
	out["tensor.layernorm_gbps"] = float64(2*L*H*4) / timeOp(func() { tensor.LayerNormRows(a, gamma, beta, 1e-5) }) / 1e9
	out["tensor.gelu_gbps"] = float64(2*L*F*4) / timeOp(func() { tensor.GeLU(ff) }) / 1e9
	rows := tensor.New(M, H)
	out["tensor.gather_gbps"] = float64(2*M*H*4) / timeOp(func() { tensor.GatherRowsInto(rows, a, idx) }) / 1e9
	out["tensor.scatter_gbps"] = float64(2*M*H*4) / timeOp(func() { tensor.ScatterRows(a, rows, idx) }) / 1e9

	// obs: what one span and one cost sample cost the hot path.
	plane := obs.NewPlane(obs.PlaneConfig{})
	args := map[string]float64{"step": 3, "batch": 2}
	spanFn := func() {
		trace := obs.TraceID(9)
		plane.SpanCausal(9, "denoise_step", "serve", 0, 1.5, 0.002, trace,
			obs.SpanID(trace, "denoise_step", 3), obs.SpanID(trace, "request", 0), args)
	}
	out["obs.span_ns"] = 1e9 * timeOp(spanFn)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		spanFn()
	}
	runtime.ReadMemStats(&after)
	out["obs.span_allocs"] = float64(after.Mallocs-before.Mallocs) / 1000
	out["obs.cost_sample_ns"] = 1e9 * timeOp(func() {
		plane.RecordCost(obs.CostSample{Stage: obs.CostStageDenoiseStep, Units: 1, Batch: 2,
			MaskSum: 0.2, FLOPs: 1e6, BlocksComputed: 12, Seconds: 0.002})
	})

	// batching and fleet: one decision each.
	core := batching.NewCore(batching.CoreConfig{MaxBatch: maxBatch})
	item := []batching.Item{{ID: 1, MaskRatio: 0.2, Steps: cfg.Steps}}
	out["batching.admit_ns"] = 1e9 * timeOp(func() { core.Admit(0, 1, item) })
	ctrl, err := fleet.NewController(fleet.Config{Replicas: workers, Router: fleet.RouterAffinity, QueueHeadroom: maxBatch})
	if err != nil {
		return err
	}
	depths, tpl := make([]int, workers), uint64(0)
	out["fleet.admit_ns"] = 1e9 * timeOp(func() { ctrl.Admit(fleet.Request{ID: 1, Template: 1, MaskRatio: 0.2}, 1) })
	out["fleet.route_ns"] = 1e9 * timeOp(func() {
		tpl++
		if _, _, err := ctrl.Route(fleet.Request{ID: tpl, Template: tpl % 16, MaskRatio: 0.2}, depths, nil); err != nil {
			panic(err) // both replicas are active
		}
	})

	return cacheLayers(out, ref, tc, workdir)
}

// cacheLayers times the template store's read and write paths on a
// private store whose RAM tier holds one template, so that alternating
// between two ids makes every Get a disk promotion.
func cacheLayers(out map[string]float64, ref *reference, tc *diffusion.TemplateCache, workdir string) error {
	out["cache.template_bytes"] = float64(tc.SizeBytes())
	var buf bytes.Buffer
	out["cache.serialize_ms"] = 1e3 * timeOp(func() {
		buf.Reset()
		if err := tc.Serialize(&buf); err != nil {
			panic(err) // bytes.Buffer writes do not fail
		}
	})
	var derr error
	out["cache.deserialize_ms"] = 1e3 * timeOp(func() {
		if _, err := diffusion.ReadTemplateCache(bytes.NewReader(buf.Bytes())); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return derr
	}

	dir, err := os.MkdirTemp(workdir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := cache.NewTieredStore(cache.TieredConfig{RAMBudget: tc.SizeBytes() * 3 / 2, SpillDir: dir})
	if err != nil {
		return err
	}
	defer store.Close()
	// A second template with different content, so the block store cannot
	// dedup it against the first.
	other, err := ref.template(churnBase - 1)
	if err != nil {
		return err
	}
	var put, disk []float64
	for i := 0; i < 5; i++ {
		for id, t := range []*diffusion.TemplateCache{tc, other} {
			start := time.Now()
			if err := store.PutCost(uint64(id+1), t, 0.1); err != nil {
				return err
			}
			store.Flush()
			put = append(put, ms(time.Since(start)))
		}
		for _, id := range []uint64{1, 2} { // put 2 evicted 1, and promoting 1 evicts 2
			start := time.Now()
			if got, res := store.GetTracked(id); got == nil || !res.Promoted {
				return fmt.Errorf("cache layer: template %d was not promoted from disk (%+v)", id, res)
			}
			disk = append(disk, ms(time.Since(start)))
		}
		for _, id := range []uint64{1, 2} {
			if err := store.Delete(id); err != nil {
				return err
			}
		}
	}
	out["cache.put_ms"] = median(put)
	out["cache.get_disk_ms"] = median(disk)
	return nil
}
