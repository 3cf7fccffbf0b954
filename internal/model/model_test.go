package model

import (
	"strings"
	"testing"
	"testing/quick"

	"flashps/internal/tensor"
)

var testCfg = Config{
	Name: "test", LatentH: 6, LatentW: 6, Hidden: 32,
	NumBlocks: 3, FFNMult: 4, Steps: 4, LatentChannels: 4,
}

func randLatent(cfg Config, seed uint64) *tensor.Matrix {
	rng := tensor.NewRNG(seed)
	return tensor.Randn(rng, cfg.Tokens(), cfg.LatentChannels, 1)
}

func TestConfigValidate(t *testing.T) {
	good := testCfg
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.LatentH = 0 }, "latent grid"},
		{func(c *Config) { c.LatentW = -1 }, "latent grid"},
		{func(c *Config) { c.Hidden = 0 }, "hidden"},
		{func(c *Config) { c.NumBlocks = 0 }, "block count"},
		{func(c *Config) { c.FFNMult = 0 }, "FFN"},
		{func(c *Config) { c.Steps = 0 }, "step count"},
		{func(c *Config) { c.LatentChannels = 0 }, "latent channels"},
	}
	for _, tc := range cases {
		c := testCfg
		tc.mutate(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
		}
	}
}

func TestSimConfigsValid(t *testing.T) {
	for _, cfg := range AllSimConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	// Size ordering SD2.1 < SDXL < Flux must be preserved.
	if !(SD21Sim.Tokens() < SDXLSim.Tokens() && SDXLSim.Tokens() < FluxSim.Tokens()) {
		t.Fatal("token counts not ordered")
	}
	if !(SD21Sim.Hidden < SDXLSim.Hidden && SDXLSim.Hidden < FluxSim.Hidden) {
		t.Fatal("hidden dims not ordered")
	}
}

func TestNewDeterministic(t *testing.T) {
	a := MustNew(testCfg, 42)
	b := MustNew(testCfg, 42)
	x := randLatent(testCfg, 1)
	ya, err := a.ForwardStep(x, 3, nil, StepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	yb, err := b.ForwardStep(x, 3, nil, StepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(ya, yb) {
		t.Fatal("same-seed models produce different outputs")
	}
	c := MustNew(testCfg, 43)
	yc, _ := c.ForwardStep(x, 3, nil, StepOptions{})
	if tensor.Equal(ya, yc) {
		t.Fatal("different seeds produce identical outputs")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := testCfg
	bad.Hidden = 0
	if _, err := New(bad, 1); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func TestForwardStepShapeChecks(t *testing.T) {
	m := MustNew(testCfg, 1)
	bad := tensor.New(5, testCfg.LatentChannels)
	if _, err := m.ForwardStep(bad, 0, nil, StepOptions{}); err == nil {
		t.Fatal("accepted wrong latent shape")
	}
	x := randLatent(testCfg, 2)
	if _, err := m.ForwardStep(x, 0, make([]float32, 7), StepOptions{}); err == nil {
		t.Fatal("accepted wrong cond length")
	}
}

func TestForwardStepOutputShape(t *testing.T) {
	m := MustNew(testCfg, 1)
	x := randLatent(testCfg, 2)
	y, err := m.ForwardStep(x, 0, nil, StepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if y.R != testCfg.Tokens() || y.C != testCfg.LatentChannels {
		t.Fatalf("output shape %v", y)
	}
}

func TestForwardStepBoundedActivations(t *testing.T) {
	m := MustNew(FluxSim, 9)
	x := randLatent(FluxSim, 3)
	y, err := m.ForwardStep(x, 5, EmbedPrompt("a red dress", FluxSim.Hidden), StepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range y.Data {
		if v != v { // NaN
			t.Fatal("forward produced NaN")
		}
		if v > 1e4 || v < -1e4 {
			t.Fatalf("activation blow-up: %v", v)
		}
	}
}

// recordFull runs a full pass recording activations, mimicking the template
// pass that populates the FlashPS cache.
func recordFull(t *testing.T, m *Model, x *tensor.Matrix, step int, cond []float32) (*tensor.Matrix, *StepActivations) {
	t.Helper()
	rec := &StepActivations{}
	y, err := m.ForwardStep(x, step, cond, StepOptions{Record: rec, RecordKV: true})
	if err != nil {
		t.Fatal(err)
	}
	return y, rec
}

func TestMaskedMatchesFullWhenInputsIdentical(t *testing.T) {
	// With the same input x and cache recorded from x, the mask-aware pass
	// must reproduce the full pass exactly: unmasked rows come from cache,
	// masked rows see identical K/V context.
	m := MustNew(testCfg, 7)
	x := randLatent(testCfg, 4)
	yFull, rec := recordFull(t, m, x, 2, nil)

	maskedIdx := []int{0, 5, 6, 7, 20, 35}
	for _, mode := range []ExecMode{ExecCachedY, ExecCachedKV} {
		y, err := m.ForwardStep(x, 2, nil, StepOptions{
			MaskedIdx: maskedIdx,
			Cached:    rec,
			Modes:     UniformModes(testCfg.NumBlocks, mode),
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !tensor.AllClose(y, yFull, 1e-4) {
			t.Fatalf("%v: masked pass diverges from full on identical inputs (maxdiff %g)",
				mode, tensor.MaxAbsDiff(y, yFull))
		}
	}
}

func TestMaskedAllTokensEqualsFull(t *testing.T) {
	m := MustNew(testCfg, 8)
	x := randLatent(testCfg, 5)
	_, rec := recordFull(t, m, x, 1, nil)
	all := make([]int, testCfg.Tokens())
	for i := range all {
		all[i] = i
	}
	yFull, _ := m.ForwardStep(x, 1, nil, StepOptions{})
	y, err := m.ForwardStep(x, 1, nil, StepOptions{
		MaskedIdx: all,
		Cached:    rec,
		Modes:     UniformModes(testCfg.NumBlocks, ExecCachedY),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(y, yFull, 1e-4) {
		t.Fatal("full-mask cached pass should equal full pass")
	}
}

func TestMaskedPreservesUnmaskedRowsExactly(t *testing.T) {
	// Even when the masked region's *input* changes (the edit), unmasked
	// output rows must be bit-identical to the cached activations: this is
	// the paper's core guarantee that unmasked regions stay untouched.
	m := MustNew(testCfg, 11)
	template := randLatent(testCfg, 6)
	_, rec := recordFull(t, m, template, 3, nil)

	maskedIdx := []int{1, 2, 3, 10, 11}
	isMasked := map[int]bool{}
	for _, i := range maskedIdx {
		isMasked[i] = true
	}

	// Edit: perturb the masked rows of the latent.
	edited := template.Clone()
	rng := tensor.NewRNG(99)
	for _, i := range maskedIdx {
		row := edited.Row(i)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
	}
	rec2 := &StepActivations{}
	_, err := m.ForwardStep(edited, 3, nil, StepOptions{
		MaskedIdx: maskedIdx,
		Cached:    rec,
		Modes:     UniformModes(testCfg.NumBlocks, ExecCachedY),
		Record:    rec2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for bi := range rec2.Blocks {
		got, want := rec2.Blocks[bi].Y, rec.Blocks[bi].Y
		for row := 0; row < got.R; row++ {
			if isMasked[row] {
				continue
			}
			for c := 0; c < got.C; c++ {
				if got.At(row, c) != want.At(row, c) {
					t.Fatalf("block %d unmasked row %d modified", bi, row)
				}
			}
		}
	}
}

func TestMaskedEditChangesMaskedRows(t *testing.T) {
	m := MustNew(testCfg, 12)
	template := randLatent(testCfg, 7)
	_, rec := recordFull(t, m, template, 0, nil)
	maskedIdx := []int{4, 5, 6}
	edited := template.Clone()
	for _, i := range maskedIdx {
		row := edited.Row(i)
		for j := range row {
			row[j] += 2
		}
	}
	y, err := m.ForwardStep(edited, 0, nil, StepOptions{
		MaskedIdx: maskedIdx,
		Cached:    rec,
		Modes:     UniformModes(testCfg.NumBlocks, ExecCachedY),
	})
	if err != nil {
		t.Fatal(err)
	}
	yTemplate, _ := m.ForwardStep(template, 0, nil, StepOptions{})
	var differs bool
	for _, i := range maskedIdx {
		for c := 0; c < y.C; c++ {
			if y.At(i, c) != yTemplate.At(i, c) {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("editing masked latent rows did not change masked outputs")
	}
}

func TestNaiveSkipDistorts(t *testing.T) {
	// The Fig 1 (rightmost) result: computing masked tokens without global
	// context produces outputs that diverge from the full computation far
	// more than the cache-reuse path does.
	m := MustNew(testCfg, 13)
	x := randLatent(testCfg, 8)
	yFull, rec := recordFull(t, m, x, 2, nil)
	maskedIdx := []int{0, 1, 2, 3, 4, 5, 6, 7}

	yCached, err := m.ForwardStep(x, 2, nil, StepOptions{
		MaskedIdx: maskedIdx, Cached: rec,
		Modes: UniformModes(testCfg.NumBlocks, ExecCachedY),
	})
	if err != nil {
		t.Fatal(err)
	}
	yNaive, err := m.ForwardStep(x, 2, nil, StepOptions{
		MaskedIdx: maskedIdx,
		Modes:     UniformModes(testCfg.NumBlocks, ExecNaiveSkip),
	})
	if err != nil {
		t.Fatal(err)
	}
	errCached := tensor.MaxAbsDiff(yCached, yFull)
	errNaive := tensor.MaxAbsDiff(yNaive, yFull)
	if errNaive <= errCached {
		t.Fatalf("naive skip (%g) should distort more than cached reuse (%g)", errNaive, errCached)
	}
	if errNaive < 1e-4 {
		t.Fatalf("naive skip suspiciously accurate: %g", errNaive)
	}
}

func TestMixedModesPerBlock(t *testing.T) {
	// The bubble-free pipeline mixes compute-all and cached blocks; a mixed
	// schedule on identical inputs must still reproduce the full output.
	m := MustNew(testCfg, 14)
	x := randLatent(testCfg, 9)
	yFull, rec := recordFull(t, m, x, 1, nil)
	modes := []ExecMode{ExecFull, ExecCachedY, ExecFull}
	y, err := m.ForwardStep(x, 1, nil, StepOptions{
		MaskedIdx: []int{3, 9, 27},
		Cached:    rec,
		Modes:     modes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(y, yFull, 1e-4) {
		t.Fatalf("mixed-mode pass diverges: %g", tensor.MaxAbsDiff(y, yFull))
	}
}

func TestForwardStepModeValidation(t *testing.T) {
	m := MustNew(testCfg, 15)
	x := randLatent(testCfg, 10)
	// Cached mode without cache.
	if _, err := m.ForwardStep(x, 0, nil, StepOptions{
		MaskedIdx: []int{1},
		Modes:     UniformModes(testCfg.NumBlocks, ExecCachedY),
	}); err == nil {
		t.Fatal("cached mode without cache accepted")
	}
	// Cached mode without masked indices.
	_, rec := recordFull(t, m, x, 0, nil)
	if _, err := m.ForwardStep(x, 0, nil, StepOptions{
		Cached: rec,
		Modes:  UniformModes(testCfg.NumBlocks, ExecCachedY),
	}); err == nil {
		t.Fatal("cached mode without mask accepted")
	}
	// KV mode without K/V.
	recNoKV := &StepActivations{Blocks: make([]BlockActivations, testCfg.NumBlocks)}
	for i := range recNoKV.Blocks {
		recNoKV.Blocks[i].Y = rec.Blocks[i].Y
	}
	if _, err := m.ForwardStep(x, 0, nil, StepOptions{
		MaskedIdx: []int{1}, Cached: recNoKV,
		Modes: UniformModes(testCfg.NumBlocks, ExecCachedKV),
	}); err == nil {
		t.Fatal("cached-kv mode without K/V accepted")
	}
	// Naive skip without mask.
	if _, err := m.ForwardStep(x, 0, nil, StepOptions{
		Modes: UniformModes(testCfg.NumBlocks, ExecNaiveSkip),
	}); err == nil {
		t.Fatal("naive-skip without mask accepted")
	}
	// Unknown mode.
	if _, err := m.ForwardStep(x, 0, nil, StepOptions{
		MaskedIdx: []int{1},
		Modes:     UniformModes(testCfg.NumBlocks, ExecMode(99)),
	}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	// Masked indices out of token order, repeated or out of range.
	for _, idx := range [][]int{{3, 1}, {2, 2}, {-1}, {testCfg.Tokens()}} {
		if _, err := m.ForwardStep(x, 0, nil, StepOptions{
			MaskedIdx: idx, Cached: rec,
			Modes: UniformModes(testCfg.NumBlocks, ExecCachedY),
		}); err == nil {
			t.Fatalf("masked indices %v accepted", idx)
		}
	}
}

func TestEmptyMaskReturnsCachedOutput(t *testing.T) {
	b := NewBlock(16, 4, tensor.NewRNG(3))
	rng := tensor.NewRNG(4)
	x := tensor.Randn(rng, 8, 16, 1)
	cached := tensor.Randn(rng, 8, 16, 1)
	y := b.ForwardMasked(x, cached, nil, nil)
	if !tensor.Equal(y, cached) {
		t.Fatal("empty mask should return cached output verbatim")
	}
}

func TestAttentionScoresRowStochastic(t *testing.T) {
	b := NewBlock(16, 4, tensor.NewRNG(5))
	rng := tensor.NewRNG(6)
	x := tensor.Randn(rng, 10, 16, 1)
	s := b.AttentionScores(x)
	if s.R != 10 || s.C != 10 {
		t.Fatalf("score shape %v", s)
	}
	for i := 0; i < s.R; i++ {
		var sum float64
		for _, v := range s.Row(i) {
			sum += float64(v)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("attention row %d sums to %g", i, sum)
		}
	}
}

func TestTimestepEmbedding(t *testing.T) {
	e1 := TimestepEmbedding(1, 32)
	e2 := TimestepEmbedding(2, 32)
	if len(e1) != 32 {
		t.Fatalf("len = %d", len(e1))
	}
	same := true
	for i := range e1 {
		if e1[i] < -1 || e1[i] > 1 {
			t.Fatalf("embedding out of [-1,1]: %v", e1[i])
		}
		if e1[i] != e2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct timesteps have identical embeddings")
	}
}

func TestEmbedPrompt(t *testing.T) {
	a := EmbedPrompt("red dress", 32)
	b := EmbedPrompt("red dress", 32)
	c := EmbedPrompt("blue hat", 32)
	if len(a) != 32 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("EmbedPrompt not deterministic")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct prompts map to identical embeddings")
	}
	for _, v := range EmbedPrompt("", 8) {
		if v != 0 {
			t.Fatal("empty prompt should embed to zero")
		}
	}
}

func TestExecModeString(t *testing.T) {
	want := map[ExecMode]string{
		ExecFull: "full", ExecCachedY: "cached-y",
		ExecCachedKV: "cached-kv", ExecNaiveSkip: "naive-skip",
	}
	for mode, s := range want {
		if mode.String() != s {
			t.Fatalf("%d.String() = %q want %q", mode, mode.String(), s)
		}
	}
	if ExecMode(42).String() != "ExecMode(42)" {
		t.Fatalf("unknown mode string = %q", ExecMode(42).String())
	}
}

func TestUniformModes(t *testing.T) {
	ms := UniformModes(4, ExecCachedY)
	if len(ms) != 4 {
		t.Fatalf("len = %d", len(ms))
	}
	for _, m := range ms {
		if m != ExecCachedY {
			t.Fatal("mode mismatch")
		}
	}
}

func TestMaskedPassPropertyRandomMasks(t *testing.T) {
	m := MustNew(testCfg, 21)
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		x := tensor.Randn(rng, testCfg.Tokens(), testCfg.LatentChannels, 1)
		yFull, rec := recordFullQuick(m, x)
		if rec == nil {
			return false
		}
		var idx []int
		for i := 0; i < testCfg.Tokens(); i++ {
			if rng.Float64() < 0.3 {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			idx = []int{0}
		}
		y, err := m.ForwardStep(x, 2, nil, StepOptions{
			MaskedIdx: idx, Cached: rec,
			Modes: UniformModes(testCfg.NumBlocks, ExecCachedY),
		})
		if err != nil {
			return false
		}
		return tensor.AllClose(y, yFull, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func recordFullQuick(m *Model, x *tensor.Matrix) (*tensor.Matrix, *StepActivations) {
	rec := &StepActivations{}
	y, err := m.ForwardStep(x, 2, nil, StepOptions{Record: rec})
	if err != nil {
		return nil, nil
	}
	return y, rec
}

func BenchmarkForwardStepFull(b *testing.B) {
	m := MustNew(SDXLSim, 1)
	x := randLatent(SDXLSim, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ForwardStep(x, 5, nil, StepOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardStepMasked20(b *testing.B) {
	m := MustNew(SDXLSim, 1)
	x := randLatent(SDXLSim, 1)
	rec := &StepActivations{}
	if _, err := m.ForwardStep(x, 5, nil, StepOptions{Record: rec}); err != nil {
		b.Fatal(err)
	}
	L := SDXLSim.Tokens()
	var idx []int
	for i := 0; i < L/5; i++ { // 20% mask ratio
		idx = append(idx, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := m.ForwardStep(x, 5, nil, StepOptions{
			MaskedIdx: idx, Cached: rec,
			Modes: UniformModes(SDXLSim.NumBlocks, ExecCachedY),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestPositionalEmbedding2D(t *testing.T) {
	pe := PositionalEmbedding2D(4, 5, 32)
	if pe.R != 20 || pe.C != 32 {
		t.Fatalf("shape %v", pe)
	}
	// Tokens in the same row share the row half; same column shares the
	// column half.
	rowHalfEqual := true
	for j := 0; j < 16; j++ {
		if pe.At(0, j) != pe.At(1, j) { // (0,0) vs (0,1): same y
			rowHalfEqual = false
		}
	}
	if !rowHalfEqual {
		t.Fatal("same-row tokens should share the row embedding half")
	}
	// Distinct positions embed distinctly.
	if tensor.CosineSimilarity(pe.Row(0), pe.Row(19)) > 0.999 {
		t.Fatal("far-apart positions nearly identical")
	}
	for _, v := range pe.Data {
		if v < -1 || v > 1 {
			t.Fatalf("positional value %v out of [-1,1]", v)
		}
	}
}

func TestEmbedTimestepTableMatchesPerCall(t *testing.T) {
	// The per-step conditioning comes from a table built at construction;
	// it must be the bits a per-call embedding → projection → gain gives,
	// for the engine's steps and for a timestep outside the table.
	m := MustNew(testCfg, 7)
	x := randLatent(testCfg, 4)
	cond := EmbedPrompt("p", testCfg.Hidden)
	for _, step := range []int{0, 1, testCfg.Steps - 1, testCfg.Steps + 3} {
		want := tensor.MatMul(x, m.inProj)
		sin := tensor.FromSlice(1, testCfg.Hidden, TimestepEmbedding(step, testCfg.Hidden))
		temb := tensor.Scale(tensor.MatMul(sin, m.timeW), 4)
		for i := 0; i < want.R; i++ {
			row, pos := want.Row(i), m.posEmb.Row(i)
			for j := range row {
				row[j] += temb.Data[j] + pos[j]
				row[j] += cond[j]
			}
		}
		if got := m.embed(nil, tensor.New(x.R, testCfg.Hidden), x, nil, step, cond); !tensor.Equal(got, want) {
			t.Fatalf("step %d: embed differs from the per-call formula (maxdiff %g)", step, tensor.MaxAbsDiff(got, want))
		}
		// A subset of rows embedded alone has the bits of those rows of the whole.
		rows := []int{0, 3, x.R - 1}
		if got := m.embed(nil, tensor.New(len(rows), testCfg.Hidden), x, rows, step, cond); !tensor.Equal(got, tensor.GatherRows(want, rows)) {
			t.Fatalf("step %d: rows %v embedded alone differ from the same rows of the whole", step, rows)
		}
	}
}

// TestLaneWithoutYGivenEveryKV: a lane given the K/V of every block needs no
// cached Y — the Y cache of a template's derived form is empty — and has the
// bits of the lane that holds it; a lane that would read Y it lacks (its
// caller asks for all rows of Out, records, or may reuse a residual) is an
// error, not a crash.
func TestLaneWithoutYGivenEveryKV(t *testing.T) {
	m := MustNew(testCfg, 9)
	x := randLatent(testCfg, 6)
	_, rec := recordFull(t, m, x, 1, nil)
	derived := m.DeriveKV(tensor.NewArena(), rec, x, 1)
	noY := &StepActivations{Blocks: make([]BlockActivations, len(rec.Blocks))}
	masked := []int{2, 9, 10, 30}
	lane := func(cached *StepActivations, maskedOut bool) Lane {
		return Lane{Latent: x, T: 1, MaskedOut: maskedOut, StepOptions: StepOptions{
			MaskedIdx: masked, Cached: cached, Derived: derived,
			Modes: UniformModes(testCfg.NumBlocks, ExecCachedY),
		}}
	}
	lanes := []Lane{lane(rec, true), lane(noY, true)}
	m.ForwardLanes(nil, lanes)
	if lanes[0].Err != nil || lanes[1].Err != nil {
		t.Fatal(lanes[0].Err, lanes[1].Err)
	}
	if !tensor.Equal(lanes[0].Out, lanes[1].Out) {
		t.Fatal("the lane without Y differs from the lane with it")
	}
	readers := []Lane{lane(noY, false), lane(noY, true), lane(noY, true)}
	readers[1].Record = &StepActivations{}
	readers[2].ReuseCache = NewReuseCache(testCfg.NumBlocks, testCfg.Tokens(), testCfg.Hidden)
	m.ForwardLanes(nil, readers)
	for i, l := range readers {
		if l.Err == nil {
			t.Fatalf("reader %d ran without the Y it reads", i)
		}
	}
}
