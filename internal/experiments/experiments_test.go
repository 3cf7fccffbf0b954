package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"flashps/internal/diffusion"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/perfmodel"
)

func TestNamesCoverEveryPaperArtifact(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig4left", "fig4mid", "fig4right", "fig6",
		"fig9", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16left", "fig16right", "table1", "table2",
		"overhead", "kvcache", "coldcache",
		"unet", "teacache-tradeoff", "dedup", "live", "utilization", "fig10", "guidance", "hetero",
	}
	names := Names()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Fatalf("experiment %q not registered (have %v)", w, names)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col", "value"},
	}
	tbl.AddRow("x", "1")
	tbl.AddRow("longer-name", "2")
	s := tbl.Format()
	for _, want := range []string{"## demo", "a note", "col", "longer-name"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Format missing %q in:\n%s", want, s)
		}
	}
}

// runQuick runs an experiment in Quick mode and does basic shape checks.
func runQuick(t *testing.T, name string, minTables int) []*Table {
	t.Helper()
	tables, err := Run(name, Options{Quick: true, Seed: 3})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(tables) < minTables {
		t.Fatalf("%s: got %d tables", name, len(tables))
	}
	for _, tbl := range tables {
		if tbl.Title == "" || len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
			t.Fatalf("%s: malformed table %+v", name, tbl)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Fatalf("%s: row width %d != header %d in %q", name, len(row), len(tbl.Header), tbl.Title)
			}
		}
	}
	return tables
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(cell, "%")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestFig3(t *testing.T) {
	tables := runQuick(t, "fig3", 1)
	// First column mean must match the paper anchors within 0.03.
	want := map[string]float64{"production": 0.11, "public": 0.19, "viton": 0.35}
	for _, row := range tables[0].Rows {
		mean := cellFloat(t, row[1])
		if w, ok := want[row[0]]; ok {
			if mean < w-0.03 || mean > w+0.03 {
				t.Fatalf("%s mean = %g want ≈%g", row[0], mean, w)
			}
		}
	}
}

func TestFig4Left(t *testing.T) {
	tables := runQuick(t, "fig4left", 1)
	for _, row := range tables[0].Rows {
		naive := cellFloat(t, row[1])
		straw := cellFloat(t, row[2])
		opt := cellFloat(t, row[3])
		ideal := cellFloat(t, row[4])
		if !(ideal <= opt+0.01 && opt <= straw+0.01 && straw <= naive+0.01) {
			t.Fatalf("scheme ordering violated in row %v", row)
		}
	}
}

func TestFig9MixesUnderSmallMasks(t *testing.T) {
	tables := runQuick(t, "fig9", 1)
	first := tables[0].Rows[0] // smallest ratio
	cached := cellFloat(t, first[1])
	total := cellFloat(t, first[2])
	if cached >= total {
		t.Fatalf("smallest mask should mix compute-all blocks: %v", first)
	}
}

func TestFig11R2(t *testing.T) {
	tables := runQuick(t, "fig11", 1)
	for _, row := range tables[0].Rows {
		if r2 := cellFloat(t, row[2]); r2 < 0.97 {
			t.Fatalf("%s comp R² = %g", row[0], r2)
		}
		if r2 := cellFloat(t, row[3]); r2 < 0.97 {
			t.Fatalf("%s load R² = %g", row[0], r2)
		}
	}
}

func TestFig14Crossover(t *testing.T) {
	tables := runQuick(t, "fig14", 2)
	for _, tbl := range tables {
		first := tbl.Rows[0]
		last := tbl.Rows[len(tbl.Rows)-1]
		// B=1: TeaCache ahead of FlashPS.
		if cellFloat(t, first[1]) >= cellFloat(t, first[3]) {
			t.Fatalf("B=1 crossover missing in %q: %v", tbl.Title, first)
		}
		// B=8: FlashPS ≥ 2.5× Diffusers and ahead of TeaCache.
		if cellFloat(t, last[4]) < 2.5 {
			t.Fatalf("B=8 FlashPS gain %v < 2.5 in %q", last[4], tbl.Title)
		}
		if cellFloat(t, last[1]) <= cellFloat(t, last[3]) {
			t.Fatalf("B=8 FlashPS should beat TeaCache in %q: %v", tbl.Title, last)
		}
	}
}

func TestFig15(t *testing.T) {
	tables := runQuick(t, "fig15", 2)
	img := tables[1]
	// Speedup@0.2 column per model within generous paper bands.
	want := map[string][2]float64{
		"sd21": {1.0, 1.7}, "sdxl": {1.7, 2.8}, "flux": {1.3, 2.6},
	}
	for _, row := range img.Rows {
		if band, ok := want[row[0]]; ok {
			s := cellFloat(t, row[len(row)-1])
			if s < band[0] || s > band[1] {
				t.Fatalf("%s speedup@0.2 = %g out of band %v", row[0], s, band)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	tables := runQuick(t, "table1", 2)
	for _, tbl := range tables {
		for _, row := range tbl.Rows {
			if cellFloat(t, row[3]) <= 1 {
				t.Fatalf("speedup not >1: %v", row)
			}
		}
	}
}

func TestKVCache(t *testing.T) {
	tables := runQuick(t, "kvcache", 1)
	for _, row := range tables[0].Rows {
		if cellFloat(t, row[2]) >= cellFloat(t, row[1]) {
			t.Fatalf("KV compute should beat Y compute: %v", row)
		}
	}
}

func TestFig6(t *testing.T) {
	tables := runQuick(t, "fig6", 2)
	rows := tables[0].Rows
	unmasked := cellFloat(t, rows[0][1])
	masked := cellFloat(t, rows[1][1])
	if unmasked < 0.9 || masked >= unmasked {
		t.Fatalf("activation similarity wrong: unmasked %g, masked %g", unmasked, masked)
	}
}

// anchorEngine is a small numeric model for the Fig 6 analyses' anchors.
func anchorEngine(t *testing.T) (*diffusion.Engine, model.Config) {
	t.Helper()
	cfg := model.Config{
		Name: "anchor", LatentH: 6, LatentW: 6, Hidden: 32,
		NumBlocks: 3, FFNMult: 4, Steps: 5, LatentChannels: 4,
	}
	eng, err := diffusion.NewEngine(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cfg
}

// Fig 6-Left anchor: across two different edits of the same template, the
// unmasked-token activations are highly similar while masked-token
// activations are not.
func TestAnchorActivationSimilarity(t *testing.T) {
	eng, cfg := anchorEngine(t)
	m := mask.Rect(cfg.LatentH, cfg.LatentW, 0, 0, 3, 6) // 50% mask
	sim, err := analyzeActivationSimilarity(eng, 9, m)
	if err != nil {
		t.Fatal(err)
	}
	if sim.UnmaskedCos < 0.9 {
		t.Fatalf("unmasked activation similarity = %.3f, want >0.9 (paper: near 1)", sim.UnmaskedCos)
	}
	if sim.MaskedCos >= sim.UnmaskedCos {
		t.Fatalf("masked similarity (%.3f) should be below unmasked (%.3f)", sim.MaskedCos, sim.UnmaskedCos)
	}
}

func TestAnalyzeActivationSimilarityGridCheck(t *testing.T) {
	eng, _ := anchorEngine(t)
	if _, err := analyzeActivationSimilarity(eng, 1, mask.New(2, 2)); err == nil {
		t.Fatal("grid mismatch accepted")
	}
}

func TestAttentionLocalityShares(t *testing.T) {
	eng, cfg := anchorEngine(t)
	m := mask.Rect(cfg.LatentH, cfg.LatentW, 0, 0, 3, 3)
	loc, err := analyzeAttentionLocality(eng, 5, m, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Each query row's attention is a distribution: quadrant pairs sum to 1.
	if math.Abs(loc.MaskedToMasked+loc.MaskedToUnmasked-1) > 1e-6 ||
		math.Abs(loc.UnmaskedToUnmasked+loc.UnmaskedToMasked-1) > 1e-6 {
		t.Fatalf("query rows don't sum to 1: %+v", loc)
	}
	if loc.NullMaskedShare != m.Ratio() {
		t.Fatalf("null share = %g want %g", loc.NullMaskedShare, m.Ratio())
	}
	if _, err := analyzeAttentionLocality(eng, 5, mask.New(2, 2), 1); err == nil {
		t.Fatal("grid mismatch accepted")
	}
}

// Table 1 anchor: each operator's FLOP speedup is exactly 1/m and the cache
// shape follows (B, (1-m)·L, H).
func TestAnchorTable1(t *testing.T) {
	for _, m := range []float64{0.1, 0.2, 0.5} {
		rows := table1Rows(perfmodel.SDXLPaper, m, 2)
		if len(rows) != 3 {
			t.Fatalf("table1Rows returned %d rows", len(rows))
		}
		for _, r := range rows {
			if math.Abs(r.Speedup-1/m) > 1e-9 || r.CacheShape == "" {
				t.Fatalf("%s at m=%g: speedup %g want %g, shape %q", r.Operator, m, r.Speedup, 1/m, r.CacheShape)
			}
		}
	}
}

// §3.1 anchor: at m=0.2, caching K/V is ≈10% faster on the compute side
// than caching Y, but doubles the cached bytes (and with doubled cache
// traffic the pipeline view no longer favors it).
func TestAnchorKVComparison(t *testing.T) {
	kv := compareKV(perfmodel.SDXLPaper, 0.2)
	if kv.ComputeKV >= kv.ComputeY {
		t.Fatalf("KV compute (%g) should beat Y compute (%g)", kv.ComputeKV, kv.ComputeY)
	}
	if kv.ComputeGain < 0.03 || kv.ComputeGain > 0.35 {
		t.Fatalf("KV compute gain = %.0f%%, paper reports ≈10%%", kv.ComputeGain*100)
	}
	if kv.CacheBytesKV != 2*kv.CacheBytesY {
		t.Fatal("KV cache should be exactly double")
	}
	if kv.PipelineKV < kv.PipelineY {
		t.Fatalf("with doubled cache traffic the pipeline view should not favor KV (Y %g vs KV %g)",
			kv.PipelineY, kv.PipelineKV)
	}
}

func TestOverheadExperiment(t *testing.T) {
	tables := runQuick(t, "overhead", 1)
	rows := tables[0].Rows
	// Every measured overhead must be sub-10ms (paper: ≈1 ms scale).
	for _, row := range rows[:4] {
		v := cellFloat(t, row[1])
		if v < 0 || v > 10000 {
			t.Fatalf("overhead %s = %gµs implausible", row[0], v)
		}
	}
}

func TestUNetAblation(t *testing.T) {
	tables := runQuick(t, "unet", 1)
	for _, row := range tables[0].Rows {
		if row[3] != "yes" {
			t.Fatalf("unmasked region not preserved on UNet: %v", row)
		}
		if cellFloat(t, row[1]) <= cellFloat(t, row[2]) {
			t.Fatalf("UNet flashps SSIM should beat naive: %v", row)
		}
	}
}

func TestTeaCacheTradeoffMonotone(t *testing.T) {
	tables := runQuick(t, "teacache-tradeoff", 1)
	rows := tables[0].Rows
	// TeaCache rows: rising threshold → fewer steps and (weakly) lower SSIM.
	prevSteps, prevSSIM := 1<<30, 2.0
	for _, row := range rows {
		if !strings.HasPrefix(row[0], "teacache") {
			continue
		}
		steps := int(cellFloat(t, row[1]))
		ssim := cellFloat(t, row[3])
		if steps > prevSteps || ssim > prevSSIM+1e-9 {
			t.Fatalf("tradeoff not monotone: %v", rows)
		}
		prevSteps, prevSSIM = steps, ssim
	}
}

func TestDedupAblation(t *testing.T) {
	tables := runQuick(t, "dedup", 1)
	last := tables[0].Rows[len(tables[0].Rows)-1] // batch 8
	if cellFloat(t, last[3]) <= cellFloat(t, last[4]) {
		t.Fatalf("shared loading should out-throughput distinct at batch 8: %v", last)
	}
}

func TestFig16LeftQuick(t *testing.T) {
	tables := runQuick(t, "fig16left", 1)
	rows := tables[0].Rows
	var static, straw, disagg float64
	for _, row := range rows {
		switch row[0] {
		case "static":
			static = cellFloat(t, row[1])
		case "strawman-cb":
			straw = cellFloat(t, row[1])
		case "disaggregated-cb":
			disagg = cellFloat(t, row[1])
		}
	}
	if !(disagg < static && disagg < straw) {
		t.Fatalf("disaggregated P95 %.2f should be lowest (static %.2f, strawman %.2f)",
			disagg, static, straw)
	}
}

func TestGuidanceAblation(t *testing.T) {
	tables := runQuick(t, "guidance", 1)
	rows := tables[0].Rows
	// Guided rows must cache more than the unguided row, keep the
	// mask-aware speedup >1 and preserve unmasked pixels exactly.
	base := cellFloat(t, rows[0][1])
	for i, row := range rows {
		if cellFloat(t, row[4]) <= 1.2 {
			t.Fatalf("speedup too small: %v", row)
		}
		if row[6] != "yes" {
			t.Fatalf("unmasked not preserved: %v", row)
		}
		if i > 0 && cellFloat(t, row[1]) <= base {
			t.Fatalf("guided cache should exceed unguided: %v", row)
		}
	}
}

func TestHeteroPipeline(t *testing.T) {
	tables := runQuick(t, "hetero", 1)
	for _, row := range tables[0].Rows {
		bubble := cellFloat(t, row[2])
		straw := cellFloat(t, row[3])
		full := cellFloat(t, row[4])
		if bubble > straw+1e-9 || bubble > full {
			t.Fatalf("hetero DP not optimal: %v", row)
		}
	}
	// Small masks must mix: first row's encoder stage not fully cached.
	first := tables[0].Rows[0][1]
	if first == "14/28/14" {
		t.Fatalf("smallest mask should drop cache on some high-res blocks: %s", first)
	}
}

func TestFig10Timeline(t *testing.T) {
	tables := runQuick(t, "fig10", 3)
	// Table order: strawman, disaggregated, static.
	straw, disagg, static := tables[0], tables[1], tables[2]
	if cellFloat(t, straw.Rows[0][5]) == 0 {
		t.Fatal("strawman req1 should be interrupted")
	}
	for _, row := range disagg.Rows {
		if cellFloat(t, row[5]) != 0 {
			t.Fatalf("disaggregated request interrupted: %v", row)
		}
	}
	// Static: req2 admitted well after its arrival (waits for the batch).
	if cellFloat(t, static.Rows[1][2])-cellFloat(t, static.Rows[1][1]) < 1 {
		t.Fatalf("static req2 should wait for the running batch: %v", static.Rows[1])
	}
}
