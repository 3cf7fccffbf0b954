package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flashps/internal/diffusion"
	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/tensor"
)

// derivedFixture is one engine and the templates it prepares: edits need the
// weights the template was recorded with, which newTemplateCache's
// engine-per-template does not keep.
type derivedFixture struct {
	t   *testing.T
	eng *diffusion.Engine
	ref map[uint64]*diffusion.TemplateCache // never derived: the computed path
}

func newDerivedFixture(t *testing.T) *derivedFixture {
	t.Helper()
	eng, err := diffusion.NewEngine(cacheTestModelCfg(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return &derivedFixture{t: t, eng: eng, ref: make(map[uint64]*diffusion.TemplateCache)}
}

// template prepares a fresh copy of template id.
func (f *derivedFixture) template(id uint64) *diffusion.TemplateCache {
	f.t.Helper()
	cfg := f.eng.Model.Config()
	h, w := f.eng.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	tc, _, err := f.eng.PrepareTemplate(id, img.SynthTemplate(id, h, w), "p", false)
	if err != nil {
		f.t.Fatal(err)
	}
	return tc
}

// edit runs one cached-Y edit on tc and checks it against the same edit on
// a copy of the template that never derives.
func (f *derivedFixture) edit(id uint64, tc *diffusion.TemplateCache, seed uint64) {
	f.t.Helper()
	if f.ref[id] == nil {
		f.ref[id] = f.template(id)
		f.ref[id].SetDeriveGate(func(int64) bool { return false })
	}
	cfg := f.eng.Model.Config()
	req := diffusion.EditRequest{
		Mask:   mask.Blob(tensor.NewRNG(seed), cfg.LatentH, cfg.LatentW, 1+int(seed%uint64(cfg.Tokens()-1))),
		Prompt: fmt.Sprint("edit ", seed), Seed: seed, Mode: diffusion.EditCachedY,
	}
	req.Template = tc
	got, err := f.eng.Edit(req)
	if err != nil {
		f.t.Fatal(err)
	}
	req.Template = f.ref[id]
	want, err := f.eng.Edit(req)
	if err != nil {
		f.t.Fatal(err)
	}
	if !tensor.Equal(got.FinalLatent, want.FinalLatent) {
		f.t.Fatalf("template %d (derived bytes %d), seed %d: edit differs from the computed path", id, tc.DerivedBytes(), seed)
	}
}

// TestDerivedBudgetProperty drives random put/get/pin/delete/edit/flush
// sequences through a store whose RAM tier has room for some derived K/V
// but not for everyone's, and checks after every operation that
//
//   - UsedBytes (templates + derived) never exceeds the budget and equals
//     what List reports entry by entry;
//   - what the store charges an entry is what its template holds;
//   - an operation that demoted a template left no derived K/V behind: all
//     of it was stripped first;
//   - an edit derives exactly when the template is resident, has none and
//     the bytes fit — so a stripped or re-promoted template re-derives only
//     once room has returned — and is bit-identical to the computed path
//     either way;
//   - nothing derived comes back from the spill tier.
func TestDerivedBudgetProperty(t *testing.T) {
	f := newDerivedFixture(t)
	size := f.template(1).SizeBytes()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// 3.5 to 5.5 templates of room; derived K/V is one template's size
		// (two blocks: 2·(B−1)/B = 1).
		budget := size*7/2 + rng.Int63n(2*size)
		s, err := NewTieredStore(TieredConfig{RAMBudget: budget, SpillDir: t.TempDir(), Policy: Policy(seed % 2)})
		if err != nil {
			t.Fatal(err)
		}
		pinned := uint64(0)
		for op := 0; op < 300; op++ {
			id := uint64(1 + rng.Intn(6))
			before := s.Stats()[0]
			what := ""
			switch k := rng.Intn(10); {
			case k < 2:
				what = "put"
				if err := s.PutCost(id, f.template(id), rng.Float64()); err != nil {
					t.Fatal(err)
				}
			case k < 3:
				what = "get"
				if tc, res := s.GetTracked(id); tc != nil && res.Promoted && tc.DerivedBytes() != 0 {
					t.Fatalf("seed %d op %d: template %d came back from %q with derived K/V", seed, op, id, res.Tier)
				}
			case k < 4:
				what = "delete"
				if err := s.Delete(id); err == nil && id == pinned {
					t.Fatalf("seed %d op %d: deleted the pinned template", seed, op)
				}
			case k < 5:
				what = "pin"
				if pinned != 0 {
					if err := s.Unpin(pinned); err != nil {
						t.Fatal(err)
					}
					pinned = 0
				}
				if s.Pin(id) == nil {
					pinned = id
				}
			case k < 6:
				what = "flush"
				s.Flush()
			default:
				what = "edit"
				tc := s.Get(id)
				if tc == nil {
					break
				}
				mid := s.Stats()[0]
				had := tc.DerivedBytes()
				fits := mid.UsedBytes+size <= budget
				f.edit(id, tc, rng.Uint64())
				after := s.Stats()[0]
				if derived := after.Derivations - mid.Derivations; derived != btoi(had == 0 && fits) {
					t.Fatalf("seed %d op %d: edit of template %d (held %d derived bytes, used %d of %d) derived %d times",
						seed, op, id, had, mid.UsedBytes, budget, derived)
				}
				if (tc.DerivedBytes() != 0) != (had != 0 || fits) {
					t.Fatalf("seed %d op %d: template %d holds %d derived bytes after the edit (had %d, fits %v)",
						seed, op, id, tc.DerivedBytes(), had, fits)
				}
			}
			host := s.Stats()[0]
			if host.UsedBytes > budget {
				t.Fatalf("seed %d op %d (%s %d): RAM tier holds %d bytes, budget %d", seed, op, what, id, host.UsedBytes, budget)
			}
			if host.Evictions > before.Evictions && host.DerivedBytes != 0 {
				t.Fatalf("seed %d op %d (%s %d): demoted a template while %d bytes of derived K/V were resident",
					seed, op, what, id, host.DerivedBytes)
			}
			var sum, derived int64
			for _, info := range s.List() {
				if info.Tier == "disk" {
					if info.DerivedBytes != 0 {
						t.Fatalf("seed %d op %d: spilled template %d lists %d derived bytes", seed, op, info.ID, info.DerivedBytes)
					}
					continue
				}
				sum += info.Bytes + info.DerivedBytes
				derived += info.DerivedBytes
				if info.ID == pinned && !info.Pinned {
					t.Fatalf("seed %d op %d: pinned template %d lost its pin", seed, op, info.ID)
				}
			}
			if sum != host.UsedBytes || derived != host.DerivedBytes {
				t.Fatalf("seed %d op %d (%s %d): entries add up to %d (%d derived), the tier reports %d (%d)",
					seed, op, what, id, sum, derived, host.UsedBytes, host.DerivedBytes)
			}
			s.mu.Lock()
			for eid, e := range s.entries {
				if got := e.tc.DerivedBytes(); got != e.derived {
					s.mu.Unlock()
					t.Fatalf("seed %d op %d (%s %d): template %d holds %d derived bytes, charged %d", seed, op, what, id, eid, got, e.derived)
				}
			}
			s.mu.Unlock()
		}
		if s.Stats()[0].Derivations == 0 || s.Stats()[0].Evictions == 0 {
			t.Fatalf("seed %d: the sequence never derived or never evicted: %+v", seed, s.Stats()[0])
		}
		s.Close()
	}
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestDerivedWholeTemplateTierUnchanged: a tier sized in whole templates
// (the benchmark's cache_thrash: 4.5 for 4) has no room for derived K/V
// once it is full, so edits never derive and the tier evicts exactly as it
// did.
func TestDerivedWholeTemplateTierUnchanged(t *testing.T) {
	f := newDerivedFixture(t)
	size := f.template(1).SizeBytes()
	s, err := NewTieredStore(TieredConfig{RAMBudget: 2*size + size/2, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := uint64(1); id <= 4; id++ {
		if err := s.PutCost(id, f.template(id), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for id := uint64(1); id <= 4; id++ {
			tc := s.Get(id)
			if tc == nil {
				t.Fatalf("template %d lost", id)
			}
			f.edit(id, tc, uint64(round)*7+id)
		}
	}
	host := s.Stats()[0]
	if host.Derivations != 0 || host.DerivedBytes != 0 {
		t.Fatalf("a whole-template tier derived: %+v", host)
	}
	if host.Entries != 2 || host.UsedBytes != 2*size {
		t.Fatalf("tier holds %d entries, %d bytes; want 2 templates", host.Entries, host.UsedBytes)
	}
}

// TestDerivedConcurrentFirstEditsDeriveOnce: workers whose first edits on
// one template overlap share one derivation. Run under -race.
func TestDerivedConcurrentFirstEditsDeriveOnce(t *testing.T) {
	f := newDerivedFixture(t)
	tc := f.template(1)
	s, err := NewTieredStore(TieredConfig{RAMBudget: 8 * tc.SizeBytes()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(1, tc); err != nil {
		t.Fatal(err)
	}
	cfg := f.eng.Model.Config()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			if _, err := f.eng.Edit(diffusion.EditRequest{
				Template: s.Get(1), Mask: maskRect(cfg.LatentH, cfg.LatentW),
				Prompt: "p", Seed: seed, Mode: diffusion.EditCachedY,
			}); err != nil {
				t.Error(err)
			}
		}(uint64(g))
	}
	wg.Wait()
	host := s.Stats()[0]
	if host.Derivations != 1 || host.DerivedBytes != tc.DerivedBytes() || host.DerivedBytes == 0 {
		t.Fatalf("four overlapping first edits: %d derivations, %d bytes charged, template holds %d",
			host.Derivations, host.DerivedBytes, tc.DerivedBytes())
	}
	// A delete takes the derived K/V with the template.
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if got := s.UsedBytes(); got != 0 || tc.DerivedBytes() != 0 {
		t.Fatalf("after delete the tier holds %d bytes and the template %d derived", got, tc.DerivedBytes())
	}
}

// TestDerivedRefusedForNonResident: a template too large for the RAM tier
// is served as a loaded copy the budget does not cover, so it must not
// carry derived K/V either.
func TestDerivedRefusedForNonResident(t *testing.T) {
	f := newDerivedFixture(t)
	tc := f.template(1)
	s, err := NewTieredStore(TieredConfig{RAMBudget: tc.SizeBytes() / 2, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(1, tc); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2; i++ { // from the write-back buffer, then from disk
		got := s.Get(1)
		if got == nil {
			t.Fatal("oversize template lost")
		}
		f.edit(1, got, 5+i)
		if got.DerivedBytes() != 0 || s.Stats()[0].Derivations != 0 || s.UsedBytes() != 0 {
			t.Fatalf("non-resident template derived: %d bytes, stats %+v", got.DerivedBytes(), s.Stats()[0])
		}
		s.Flush()
	}
}
