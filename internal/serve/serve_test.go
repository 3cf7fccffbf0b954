package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flashps/internal/batching"
	"flashps/internal/diffusion"
	"flashps/internal/faults"
	"flashps/internal/img"
	"flashps/internal/model"
	"flashps/internal/obs"
	"flashps/internal/perfmodel"
	"flashps/internal/tensor"
)

var testModel = model.Config{
	Name: "serve-test", LatentH: 6, LatentW: 6, Hidden: 32,
	NumBlocks: 3, FFNMult: 4, Steps: 5, LatentChannels: 4,
}

func newTestServer(t testing.TB, workers int) *Server {
	t.Helper()
	s, err := New(Config{
		Model:    testModel,
		Profile:  perfmodel.SD21Paper,
		Workers:  workers,
		MaxBatch: 4, PreWorkers: 2, PostWorkers: 2,
		Policy: batching.MaskAware,
		Seed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

func prepareTemplate(t testing.TB, s *Server, id uint64) {
	t.Helper()
	if _, err := s.Prepare(PrepareRequest{TemplateID: id, ImageSeed: id, Prompt: "template"}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskSpecBuild(t *testing.T) {
	m, err := MaskSpec{Type: "rect", Y0: 1, X0: 1, Y1: 3, X1: 4}.Build(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if m.MaskedCount() != 6 {
		t.Fatalf("rect count = %d", m.MaskedCount())
	}
	if _, err := (MaskSpec{Type: "rect", Y0: 3, Y1: 3}).Build(6, 6); err == nil {
		t.Fatal("empty rect accepted")
	}
	e, err := MaskSpec{Type: "ellipse", Y0: 0, X0: 0, Y1: 6, X1: 6}.Build(6, 6)
	if err != nil || e.MaskedCount() == 0 {
		t.Fatalf("ellipse: %v count=%d", err, e.MaskedCount())
	}
	if _, err := (MaskSpec{Type: "ellipse"}).Build(6, 6); err == nil {
		t.Fatal("empty ellipse accepted")
	}
	r, err := MaskSpec{Type: "ratio", Ratio: 0.25, Seed: 1}.Build(8, 8)
	if err != nil || r.MaskedCount() != 16 {
		t.Fatalf("ratio mask: %v count=%d", err, r.MaskedCount())
	}
	if _, err := (MaskSpec{Type: "ratio", Ratio: 0}).Build(6, 6); err == nil {
		t.Fatal("ratio 0 accepted")
	}
	f, err := MaskSpec{Type: "full"}.Build(4, 4)
	if err != nil || f.MaskedCount() != 16 {
		t.Fatal("full mask wrong")
	}
	if _, err := (MaskSpec{Type: "nope"}).Build(6, 6); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestMaskSpecJSONRoundTrip(t *testing.T) {
	in := MaskSpec{Type: "rect", Y0: 1, X0: 2, Y1: 3, X1: 4, Ratio: 0.5, Seed: 9}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out MaskSpec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if in.Type != out.Type || in.Y0 != out.Y0 || in.X0 != out.X0 ||
		in.Y1 != out.Y1 || in.X1 != out.X1 || in.Ratio != out.Ratio || in.Seed != out.Seed {
		t.Fatalf("round trip: %+v vs %+v", in, out)
	}
}

func TestMaskSpecPNG(t *testing.T) {
	// White square in the top-left quadrant of a 12×12 mask image →
	// masked top-left cells on a 6×6 latent grid.
	mi := img.New(12, 12)
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			mi.Set(y, x, 1, 1, 1)
		}
	}
	data, err := img.EncodePNG(mi)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MaskSpec{Type: "png", PNG: data}.Build(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !m.At(0, 0) || !m.At(2, 2) || m.At(4, 4) {
		t.Fatalf("png mask rasterized wrong: %v", m)
	}
	if _, err := (MaskSpec{Type: "png", PNG: []byte("junk")}).Build(6, 6); err == nil {
		t.Fatal("junk mask image accepted")
	}
	black, _ := img.EncodePNG(img.New(4, 4))
	if _, err := (MaskSpec{Type: "png", PNG: black}).Build(6, 6); err == nil {
		t.Fatal("all-black mask image accepted")
	}
}

func TestPrepareWithUploadedImage(t *testing.T) {
	s := newTestServer(t, 1)
	up, err := img.EncodePNG(img.SynthTemplate(9, 24, 24)) // needs resizing
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare(PrepareRequest{TemplateID: 5, ImagePNG: up, Prompt: "uploaded"}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 5, Prompt: "edit", Seed: 1,
		Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StepsComputed != testModel.Steps {
		t.Fatalf("edit on uploaded template failed: %+v", resp)
	}
	if _, err := s.Prepare(PrepareRequest{TemplateID: 6, ImagePNG: []byte("junk")}); err == nil {
		t.Fatal("junk template image accepted")
	}
}

func TestParseMode(t *testing.T) {
	for _, mode := range []string{"", "flashps", "full", "naive", "teacache"} {
		if _, err := parseMode(mode); err != nil {
			t.Fatalf("parseMode(%q): %v", mode, err)
		}
	}
	if _, err := parseMode("wat"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestPrepareAndEdit(t *testing.T) {
	s := newTestServer(t, 1)
	prepareTemplate(t, s, 1)
	resp, err := s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 1, Prompt: "a red scarf", Seed: 3,
		Mask: MaskSpec{Type: "rect", Y0: 1, X0: 1, Y1: 4, X1: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StepsComputed != testModel.Steps {
		t.Fatalf("StepsComputed = %d", resp.StepsComputed)
	}
	if resp.TotalMS <= 0 || resp.InferenceMS <= 0 {
		t.Fatalf("timings missing: %+v", resp)
	}
	if resp.MaskRatio <= 0 {
		t.Fatal("mask ratio missing")
	}
}

func TestEditUnknownTemplate(t *testing.T) {
	s := newTestServer(t, 1)
	_, err := s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 99, Mask: MaskSpec{Type: "full"},
	})
	if err == nil {
		t.Fatal("unknown template accepted")
	}
}

func TestEditInvalidMask(t *testing.T) {
	s := newTestServer(t, 1)
	prepareTemplate(t, s, 1)
	_, err := s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 1, Mask: MaskSpec{Type: "bogus"},
	})
	if err == nil {
		t.Fatal("invalid mask accepted")
	}
}

func TestConcurrentEditsContinuousBatching(t *testing.T) {
	// Several concurrent requests must all complete, exercising admission
	// at step boundaries, and produce deterministic per-request results.
	s := newTestServer(t, 2)
	prepareTemplate(t, s, 1)
	prepareTemplate(t, s, 2)
	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	resps := make([]EditResponse, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = s.SubmitEdit(context.Background(), EditRequestAPI{
				TemplateID: uint64(i%2 + 1),
				Prompt:     "edit",
				Seed:       uint64(i),
				Mask:       MaskSpec{Type: "ratio", Ratio: 0.1 + 0.05*float64(i%5), Seed: uint64(i)},
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resps[i].StepsComputed != testModel.Steps {
			t.Fatalf("request %d computed %d steps", i, resps[i].StepsComputed)
		}
	}
	st := s.Snapshot()
	if st.Completed != n {
		t.Fatalf("completed = %d want %d", st.Completed, n)
	}
	// §6.6 overhead measurements must be populated and small (sub-ms on
	// this toy engine; the paper reports ≈1 ms at production scale).
	if st.ScheduleDecisionUS <= 0 || st.SerializeUS <= 0 || st.HandoffUS < 0 {
		t.Fatalf("overheads not measured: %+v", st)
	}
	if st.ScheduleDecisionUS > 50000 {
		t.Fatalf("scheduling overhead %.0fµs implausibly large", st.ScheduleDecisionUS)
	}
}

func TestDeterministicOutputAcrossWorkers(t *testing.T) {
	// All workers share weights, so the same request yields the same image
	// regardless of which replica serves it.
	s := newTestServer(t, 2)
	prepareTemplate(t, s, 1)
	req := EditRequestAPI{
		TemplateID: 1, Prompt: "deterministic", Seed: 7,
		Mask:        MaskSpec{Type: "rect", Y0: 0, X0: 0, Y1: 3, X1: 3},
		ReturnImage: true,
	}
	a, err := s.SubmitEdit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SubmitEdit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.ImagePNG, b.ImagePNG) {
		t.Fatal("same request produced different images")
	}
	if len(a.ImagePNG) == 0 {
		t.Fatal("ReturnImage produced no PNG")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Health.
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, res.Status)
	}
	res.Body.Close()

	// Prepare template.
	body, _ := json.Marshal(PrepareRequest{TemplateID: 5, ImageSeed: 5, Prompt: "p"})
	res, err = http.Post(ts.URL+"/v1/templates", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var prep PrepareResponse
	if err := json.NewDecoder(res.Body).Decode(&prep); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if prep.CacheBytes <= 0 {
		t.Fatalf("prepare response: %+v", prep)
	}

	// Edit.
	body, _ = json.Marshal(EditRequestAPI{
		TemplateID: 5, Prompt: "x", Seed: 1,
		Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 2},
	})
	res, err = http.Post(ts.URL+"/v1/edits", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var edit EditResponse
	if err := json.NewDecoder(res.Body).Decode(&edit); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if edit.StepsComputed != testModel.Steps {
		t.Fatalf("edit response: %+v", edit)
	}

	// Stats.
	res, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if st.Completed != 1 {
		t.Fatalf("stats completed = %d", st.Completed)
	}

	// Bad method and bad JSON.
	res, _ = http.Get(ts.URL + "/v1/edits")
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/edits = %d", res.StatusCode)
	}
	res.Body.Close()
	res, _ = http.Post(ts.URL+"/v1/edits", "application/json", bytes.NewReader([]byte("{")))
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d", res.StatusCode)
	}
	res.Body.Close()
}

func TestLatentSerializationRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := tensor.Randn(rng, 7, 5, 1)
	buf := serializeLatent(m)
	got := deserializeLatent(buf)
	if got == nil || !tensor.Equal(got, m) {
		t.Fatal("latent serialization round trip failed")
	}
	if deserializeLatent(nil) != nil {
		t.Fatal("nil buffer should fail")
	}
	if deserializeLatent(buf[:10]) != nil {
		t.Fatal("truncated buffer should fail")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testModel
	bad.Hidden = 0
	if _, err := New(Config{Model: bad, Profile: perfmodel.SD21Paper}); err == nil {
		t.Fatal("bad model config accepted")
	}
}

func TestTieredCacheDirSurvivesEviction(t *testing.T) {
	// With a disk tier, a template evicted from host memory by LRU stages
	// back from disk transparently (§4.2 on the live path).
	s, err := New(Config{
		Model:   testModel,
		Profile: perfmodel.SD21Paper,
		Workers: 1, MaxBatch: 2,
		Policy:   batching.MaskAware,
		Seed:     42,
		CacheDir: t.TempDir(),
		// Budget fits roughly one template, forcing eviction.
		CacheBudgetBytes: 100 << 10, // fits exactly one ~69 KiB template
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Close)

	prep, err := s.Prepare(PrepareRequest{TemplateID: 1, ImageSeed: 1, Prompt: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if prep.CacheBytes > 100<<10 {
		t.Skipf("template cache %d exceeds test budget", prep.CacheBytes)
	}
	if _, err := s.Prepare(PrepareRequest{TemplateID: 2, ImageSeed: 2, Prompt: "b"}); err != nil {
		t.Fatal(err)
	}
	// Template 1 is likely evicted now; editing it must still work.
	resp, err := s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 1, Prompt: "edit", Seed: 3,
		Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StepsComputed != testModel.Steps {
		t.Fatalf("edit after eviction failed: %+v", resp)
	}
}

func TestAdmissionControlRejectsWhenFull(t *testing.T) {
	// Slow the denoise steps down (kernel-speed-independent) so the burst
	// actually accumulates behind MaxBatch=1 instead of racing completions.
	inj := faults.New(7)
	inj.SetDelay(faults.StepStage, 10*time.Millisecond, 0)
	s, err := New(Config{
		Model:   testModel,
		Profile: perfmodel.SD21Paper,
		Workers: 1, MaxBatch: 1, MaxQueue: 1,
		Policy: batching.MaskAware, Seed: 42,
		Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Close)
	prepareTemplate(t, s, 1)

	// Fire a burst; with MaxQueue=1 some must be rejected with
	// ErrOverloaded while at least one succeeds.
	const n = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, rejected := 0, 0
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.SubmitEdit(context.Background(), EditRequestAPI{
				TemplateID: 1, Seed: uint64(i),
				Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: uint64(i)},
			})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrOverloaded):
				rejected++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no request admitted")
	}
	if rejected == 0 {
		t.Fatal("no request rejected despite MaxQueue=1 burst")
	}
	if ok+rejected != n {
		t.Fatalf("accounting: %d ok + %d rejected != %d", ok, rejected, n)
	}
}

func TestStatsWorkerQueueDepths(t *testing.T) {
	s := newTestServer(t, 3)
	st := s.Snapshot()
	if len(st.WorkerQueueDepths) != 3 {
		t.Fatalf("queue depths = %v, want 3 entries", st.WorkerQueueDepths)
	}
	for _, d := range st.WorkerQueueDepths {
		if d != 0 {
			t.Fatalf("idle server depth = %d", d)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, 2)
	prepareTemplate(t, s, 1)
	if _, err := s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 1, Seed: 1, Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`flashps_requests_total{outcome="ok"} 1`,
		`flashps_request_stage_seconds_bucket{stage="request",le="+Inf"} 1`,
		`flashps_worker_queue_depth{worker="0"}`,
		"flashps_denoise_steps_total 5",
		"# TYPE flashps_cache_hits gauge",
		"# TYPE flashps_request_stage_seconds histogram",
		"flashps_batch_occupancy_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestHTTPOverloadedReturns429(t *testing.T) {
	slow := testModel
	slow.Name = "slow429"
	slow.Steps = 40
	// Slow each denoising step through the fault injector so the single
	// worker saturates deterministically, however fast the kernels are.
	inj := faults.New(1)
	inj.SetDelay(faults.StepStage, time.Millisecond, 0)
	s, err := New(Config{
		Model: slow, Profile: perfmodel.SD21Paper,
		Workers: 1, MaxBatch: 1, MaxQueue: 1,
		Policy: batching.MaskAware, Seed: 42, Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Close)
	prepareTemplate(t, s, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fire := func(i int) int {
		body, _ := json.Marshal(EditRequestAPI{
			TemplateID: 1, Seed: uint64(i),
			Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: uint64(i)},
		})
		res, err := http.Post(ts.URL+"/v1/edits", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res.StatusCode
	}
	codes := make(chan int, 8)
	for i := 0; i < 8; i++ {
		i := i
		go func() { codes <- fire(i) }()
	}
	var got429, got200 bool
	for i := 0; i < 8; i++ {
		switch <-codes {
		case http.StatusTooManyRequests:
			got429 = true
		case http.StatusOK:
			got200 = true
		default:
		}
	}
	if !got429 || !got200 {
		t.Fatalf("expected a mix of 200 and 429 (got200=%v got429=%v)", got200, got429)
	}
}

// TestDerivedFormServesEveryMode: under RAM pressure with a disk tier the
// store keeps templates as their derived forms; every mode — a plain
// flashps edit on the form, one with a step policy that reads Y from the
// disk tier for itself, and the baselines — serves the bytes a private
// engine computes from the template, with no request degraded, and the
// cache_load span says which form each edit ran on.
func TestDerivedFormServesEveryMode(t *testing.T) {
	ref, err := diffusion.NewEngine(testModel, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, w := ref.Codec.ImageSize(testModel.LatentH, testModel.LatentW)
	tpl, _, err := ref.PrepareTemplate(1, img.SynthTemplate(1, h, w), "template", false)
	if err != nil {
		t.Fatal(err)
	}
	size := tpl.SizeBytes()
	s, err := New(Config{
		Model: testModel, Profile: perfmodel.SD21Paper,
		Workers: 1, MaxBatch: 2, Policy: batching.MaskAware, Seed: 42,
		CacheDir: t.TempDir(), CacheBudgetBytes: 2*size + size/2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Close)
	templates := map[uint64]*diffusion.TemplateCache{}
	for id := uint64(1); id <= 4; id++ {
		prepareTemplate(t, s, id)
		if templates[id], _, err = ref.PrepareTemplate(id, img.SynthTemplate(id, h, w), "template", false); err != nil {
			t.Fatal(err)
		}
	}
	modes := []struct {
		api     string
		mode    diffusion.EditMode
		policy  string
		derived float64 // the cache_load span's arg
	}{
		{"flashps", diffusion.EditCachedY, "", 1},
		{"flashps", diffusion.EditCachedY, "block", 0},
		{"full", diffusion.EditFull, "", 1},
		{"naive", diffusion.EditNaiveSkip, "", 1},
		{"teacache", diffusion.EditTeaCache, "", 1},
	}
	for round := uint64(0); round < 2; round++ {
		for id := uint64(1); id <= 4; id++ {
			for i, m := range modes {
				api := EditRequestAPI{TemplateID: id, Prompt: "a red scarf", Seed: 10*round + uint64(i),
					Mode: m.api, Policy: m.policy, ReturnImage: true,
					Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: id}}
				resp, err := s.SubmitEdit(context.Background(), api)
				if err != nil {
					t.Fatal(err)
				}
				mk, _ := api.Mask.Build(testModel.LatentH, testModel.LatentW)
				want, err := ref.Edit(diffusion.EditRequest{Template: templates[id], Mask: mk, Prompt: api.Prompt,
					Seed: api.Seed, Mode: m.mode, Policy: m.policy})
				if err != nil {
					t.Fatal(err)
				}
				png, err := img.EncodePNG(want.Image)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Degraded || !bytes.Equal(resp.ImagePNG, png) {
					t.Fatalf("round %d template %d %s/%s: degraded %v, PNG equal %v", round, id, m.api, m.policy, resp.Degraded, bytes.Equal(resp.ImagePNG, png))
				}
				if round == 1 {
					var args obs.SpanArgs
					for _, sp := range s.Obs().Tracer.Snapshot() {
						if sp.Name == stageCacheLoad && sp.Request == resp.RequestID {
							args = sp.Args
						}
					}
					if got, ok := args.Get("derived"); !ok || got != m.derived {
						t.Fatalf("template %d %s/%s: cache_load span args %+v, want derived %v", id, m.api, m.policy, args, m.derived)
					}
				}
			}
		}
	}
	if host := s.store.Stats()[0]; host.UsedBytes > host.CapacityBytes {
		t.Fatalf("host tier: %+v", host)
	}
	forms := 0
	for _, info := range s.store.List() {
		if info.DerivedBytes > 0 && info.Bytes < size { // the form's K/V and trajectory, no Y
			forms++
		}
	}
	if forms == 0 {
		t.Fatalf("no template is held as its derived form: %+v", s.store.List())
	}
	// A reused prepare reports the activation cache, whatever form is held.
	for id := uint64(1); id <= 4; id++ {
		resp, err := s.Prepare(PrepareRequest{TemplateID: id, ImageSeed: id, Prompt: "template"})
		if err != nil || !resp.Reused || resp.CacheBytes != size {
			t.Fatalf("reused prepare of template %d: %+v (err %v), want %d cache bytes", id, resp, err, size)
		}
	}
}
