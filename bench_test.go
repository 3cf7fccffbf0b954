package flashps_test

import (
	"context"
	"testing"

	"flashps/internal/batching"
	"flashps/internal/cluster"
	"flashps/internal/diffusion"
	"flashps/internal/experiments"
	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/perfmodel"
	"flashps/internal/pipeline"
	"flashps/internal/serve"
	"flashps/internal/tensor"
	"flashps/internal/workload"
)

// One benchmark per paper table/figure. The heavyweight ones delegate to
// the same experiment runners cmd/flashps-bench uses (Quick mode), so a
// `go test -bench=.` pass regenerates every artifact under the Go
// benchmarking harness; the lightweight ones time the primitive that
// dominates the corresponding figure.

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(name, experiments.Options{Quick: true, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 1: headline mask-aware edit ------------------------------------

func fig1Setup(b *testing.B) (*diffusion.Engine, *diffusion.TemplateCache, *mask.Mask) {
	b.Helper()
	eng, err := diffusion.NewEngine(model.SDXLSim, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := eng.Model.Config()
	h, w := eng.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	tc, _, err := eng.PrepareTemplate(1, img.SynthTemplate(7, h, w), "p", false)
	if err != nil {
		b.Fatal(err)
	}
	m := mask.WithRatio(tensor.NewRNG(3), cfg.LatentH, cfg.LatentW, 0.2)
	return eng, tc, m
}

func BenchmarkFig1MaskAwareEdit(b *testing.B) {
	eng, tc, m := fig1Setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Edit(diffusion.EditRequest{
			Template: tc, Mask: m, Seed: 1, Mode: diffusion.EditCachedY,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1FullRegeneration(b *testing.B) {
	eng, tc, m := fig1Setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Edit(diffusion.EditRequest{
			Template: tc, Mask: m, Seed: 1, Mode: diffusion.EditFull,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 3: mask-ratio sampling ------------------------------------------

func BenchmarkFig3MaskSampling(b *testing.B) {
	rng := tensor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range workload.AllDists() {
			_ = d.Sample(rng)
		}
	}
}

// --- Fig 4: motivating microbenchmarks -----------------------------------

func BenchmarkFig4LeftLoadingSchemes(b *testing.B) {
	p := perfmodel.SDXLPaper
	cost := pipeline.BlockCost{
		CompCached: p.BlockComputeMasked([]float64{0.2}),
		CompFull:   p.BlockComputeFull(1),
		Load:       p.BlockLoad([]float64{0.2}),
	}
	costs := pipeline.Uniform(cost, p.Blocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeline.NaiveLatency(costs)
		pipeline.StrawmanLatency(costs)
		pipeline.Optimize(costs)
	}
}

func BenchmarkFig4MidQueueing(b *testing.B)      { benchExperiment(b, "fig4mid") }
func BenchmarkFig4RightLoadBalance(b *testing.B) { benchExperiment(b, "fig4right") }

// --- Fig 6: key-insight analyses ------------------------------------------

func BenchmarkFig6ActivationSimilarity(b *testing.B) { benchExperiment(b, "fig6") }

// --- Fig 9 / Algorithm 1: pipeline DP -------------------------------------

func BenchmarkFig9PipelineDP(b *testing.B) {
	p := perfmodel.SDXLPaper
	cost := pipeline.BlockCost{
		CompCached: p.BlockComputeMasked([]float64{0.05, 0.1, 0.2, 0.3}),
		CompFull:   p.BlockComputeFull(4),
		Load:       p.BlockLoad([]float64{0.05, 0.1, 0.2, 0.3}),
	}
	costs := pipeline.Uniform(cost, p.Blocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeline.Optimize(costs)
	}
}

// --- Fig 11: regression calibration ---------------------------------------

func BenchmarkFig11Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := perfmodel.Calibrate(perfmodel.FluxPaper, tensor.NewRNG(1), 0.02); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 12: end-to-end serving -------------------------------------------

func BenchmarkFig12EndToEnd(b *testing.B) {
	reqs, err := workload.Generate(workload.TraceConfig{
		N: 60, RPS: 4, Dist: workload.VITONTrace, Templates: 8, ZipfS: 1.1, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Run(cluster.Config{
			System: cluster.SystemFlashPS, Batching: cluster.BatchingDisaggregated,
			Policy: cluster.PolicyMaskAware, Workers: 8,
			Profile: perfmodel.SDXLPaper, Seed: 1,
		}, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 13: qualitative examples -----------------------------------------

func BenchmarkFig13Qualitative(b *testing.B) { benchExperiment(b, "fig13") }

// --- Fig 14: engine throughput --------------------------------------------

func BenchmarkFig14EngineThroughput(b *testing.B) {
	p := perfmodel.SDXLPaper
	batch := make([]cluster.ReqView, 8)
	for i := range batch {
		batch[i] = cluster.ReqView{Template: 1, MaskRatio: 0.19}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.StepLatency(cluster.SystemFlashPS, p, batch)
		cluster.StepLatency(cluster.SystemDiffusers, p, batch)
	}
}

// --- Fig 15: mask-ratio scaling --------------------------------------------

func BenchmarkFig15MaskedBlock20(b *testing.B) {
	benchMaskedBlock(b, 0.2)
}

func BenchmarkFig15MaskedBlock50(b *testing.B) {
	benchMaskedBlock(b, 0.5)
}

func benchMaskedBlock(b *testing.B, ratio float64) {
	b.Helper()
	cfg := model.FluxSim
	mdl := model.MustNew(cfg, 1)
	rng := tensor.NewRNG(2)
	x := tensor.Randn(rng, cfg.Tokens(), cfg.Hidden, 1)
	rec := &model.BlockActivations{}
	mdl.Blocks[0].Forward(x, nil, rec)
	k := int(ratio * float64(cfg.Tokens()))
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mdl.Blocks[0].ForwardMasked(x, rec.Y, nil, idx)
	}
}

// --- Fig 16: batching strategies and LB policies ---------------------------

func BenchmarkFig16LeftBatching(b *testing.B)  { benchExperiment(b, "fig16left") }
func BenchmarkFig16RightPolicies(b *testing.B) { benchExperiment(b, "fig16right") }

// --- Table 1: kernels --------------------------------------------------------

func BenchmarkTable1FullBlock(b *testing.B) {
	cfg := model.SDXLSim
	mdl := model.MustNew(cfg, 1)
	rng := tensor.NewRNG(2)
	x := tensor.Randn(rng, cfg.Tokens(), cfg.Hidden, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mdl.Blocks[0].Forward(x, nil, nil)
	}
}

// --- Table 2: quality suites -------------------------------------------------

func BenchmarkTable2Quality(b *testing.B) { benchExperiment(b, "table2") }

// --- §6.6: overheads ----------------------------------------------------------

func BenchmarkOverheadScheduleDecision(b *testing.B) {
	est, err := perfmodel.Calibrate(perfmodel.FluxPaper, tensor.NewRNG(1), 0.02)
	if err != nil {
		b.Fatal(err)
	}
	s := batching.New(batching.MaskAware, est, est.Profile.MaxBatch, 1)
	workers := make([]batching.WorkerView, 8)
	rng := tensor.NewRNG(5)
	for i := range workers {
		n := rng.Intn(6)
		for j := 0; j < n; j++ {
			workers[i].Ratios = append(workers[i].Ratios, rng.Float64()*0.5)
			workers[i].RemSteps = append(workers[i].RemSteps, rng.Intn(28))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Pick(workers, batching.Item{MaskRatio: 0.2, Steps: 28})
	}
}

func BenchmarkOverheadServingPlane(b *testing.B) {
	srv, err := serve.New(serve.Config{
		Model: model.Config{
			Name: "bench", LatentH: 6, LatentW: 6, Hidden: 32,
			NumBlocks: 3, FFNMult: 4, Steps: 4, LatentChannels: 4,
		},
		Profile: perfmodel.SD21Paper,
		Workers: 1, MaxBatch: 4, Policy: batching.MaskAware, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	if _, err := srv.Prepare(serve.PrepareRequest{TemplateID: 1, ImageSeed: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.SubmitEdit(context.Background(), serve.EditRequestAPI{
			TemplateID: 1, Seed: uint64(i),
			Mask: serve.MaskSpec{Type: "ratio", Ratio: 0.2, Seed: uint64(i)},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 7 / §3.1: KV-cache variant -------------------------------------------

func BenchmarkKVCacheVariantEdit(b *testing.B) {
	eng, err := diffusion.NewEngine(model.SD21Sim, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := eng.Model.Config()
	h, w := eng.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	tc, _, err := eng.PrepareTemplate(1, img.SynthTemplate(7, h, w), "p", true)
	if err != nil {
		b.Fatal(err)
	}
	m := mask.WithRatio(tensor.NewRNG(3), cfg.LatentH, cfg.LatentW, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Edit(diffusion.EditRequest{
			Template: tc, Mask: m, Seed: 1, Mode: diffusion.EditCachedKV,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
