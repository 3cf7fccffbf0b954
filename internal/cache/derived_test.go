package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
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
	return f.templateOf(id, id)
}

// templateOf prepares template id from the image of seed image.
func (f *derivedFixture) templateOf(id, image uint64) *diffusion.TemplateCache {
	f.t.Helper()
	cfg := f.eng.Model.Config()
	h, w := f.eng.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	tc, _, err := f.eng.PrepareTemplate(id, img.SynthTemplate(image, h, w), "p", false)
	if err != nil {
		f.t.Fatal(err)
	}
	return tc
}

// reference makes the image of seed image what template id's edits are
// checked against from now on.
func (f *derivedFixture) reference(id, image uint64) {
	f.ref[id] = f.templateOf(id, image)
	f.ref[id].SetDeriveGate(func(int64, bool) bool { return false }, nil)
}

// edit runs one cached-Y edit on tc and checks it against the same edit on
// a copy of the template that never derives.
func (f *derivedFixture) edit(id uint64, tc *diffusion.TemplateCache, seed uint64) {
	f.t.Helper()
	f.editPolicy(id, tc, seed, "")
}

// editPolicy is edit with a step policy, under which the edit reads Y.
func (f *derivedFixture) editPolicy(id uint64, tc *diffusion.TemplateCache, seed uint64, policy string) {
	f.t.Helper()
	if f.ref[id] == nil {
		f.reference(id, id)
	}
	cfg := f.eng.Model.Config()
	req := diffusion.EditRequest{
		Mask:   mask.Blob(tensor.NewRNG(seed), cfg.LatentH, cfg.LatentW, 1+int(seed%uint64(cfg.Tokens()-1))),
		Prompt: fmt.Sprint("edit ", seed), Seed: seed, Mode: diffusion.EditCachedY, Policy: policy,
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
// but not for everyone's, without and with a spill tier, and checks after
// every operation that
//
//   - UsedBytes (templates + derived) never exceeds the budget and equals
//     what List reports entry by entry;
//   - what the store charges an entry is what its template holds;
//   - an operation that demoted a template left no derived K/V beside a Y
//     behind: all of it was stripped first;
//   - an edit derives exactly when the template is resident and has none
//     and the bytes fit beside it — or, with a spill tier, when they do
//     not but the larger of the template's Y and derived form fits beside
//     the pinned ones, and the template then is that form — so a stripped
//     or re-promoted template re-derives only once room has returned, and
//     the edit is bit-identical to the computed path either way;
//   - without a spill tier nothing is ever a derived form; with one, a
//     promotion brings back the derived form exactly when the spill tier
//     has it, and the Y form with nothing derived otherwise.
func TestDerivedBudgetProperty(t *testing.T) {
	f := newDerivedFixture(t)
	size := f.template(1).SizeBytes()
	formBytes := size + f.template(1).TrajectoryBytes()
	for _, spill := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			derivedBudgetRun(t, f, spill, seed, size, formBytes)
		}
	}
}

func derivedBudgetRun(t *testing.T, f *derivedFixture, spill bool, seed, size, formBytes int64) {
	rng := rand.New(rand.NewSource(seed))
	// 3.5 to 5.5 templates of room; derived K/V is one template's size
	// (two blocks: 2·(B−1)/B = 1).
	budget := size*7/2 + rng.Int63n(2*size)
	cfg := TieredConfig{RAMBudget: budget, Policy: Policy(seed % 2)}
	if spill {
		cfg.SpillDir = t.TempDir()
	}
	s, err := NewTieredStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pinned := uint64(0)
	for op := 0; op < 300; op++ {
		id := uint64(1 + rng.Intn(6))
		before := s.Stats()[0]
		what := ""
		switch k := rng.Intn(10); {
		case k < 2:
			what = "put"
			if err := s.PutCost(id, f.template(id), rng.Float64()); err != nil && (spill || !errors.Is(err, ErrCacheFull)) {
				t.Fatal(err)
			}
		case k < 3:
			what = "get"
			s.mu.Lock()
			_, resident := s.entries[id]
			wantForm := spill && !resident && (s.pending[spillKey{id, true}] != nil || s.spilledLocked(spillKey{id, true}))
			s.mu.Unlock()
			tc, res := s.GetTracked(id)
			if tc != nil && res.Promoted && (tc.IsDerivedForm() != wantForm || !tc.IsDerivedForm() && tc.DerivedBytes() != 0) {
				t.Fatalf("spill %v seed %d op %d: template %d came back from %q as derived form %v (want %v) with %d derived bytes",
					spill, seed, op, id, res.Tier, tc.IsDerivedForm(), wantForm, tc.DerivedBytes())
			}
		case k < 4:
			what = "delete"
			if err := s.Delete(id); err == nil && id == pinned {
				t.Fatalf("spill %v seed %d op %d: deleted the pinned template", spill, seed, op)
			}
		case k < 5:
			what = "pin"
			if pinned != 0 {
				if err := s.Unpin(pinned); err != nil && spill {
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
			s.mu.Lock()
			conversions := s.conversions
			s.mu.Unlock()
			had := tc.DerivedBytes()
			fits := mid.UsedBytes+size <= budget
			floor := max(size, formBytes) // the Y, then the form it turns into
			for _, info := range s.List() {
				if info.Pinned && info.ID != id {
					floor += info.Bytes + info.DerivedBytes
				}
			}
			converts := spill && had == 0 && !fits && floor <= budget
			f.edit(id, tc, rng.Uint64())
			after := s.Stats()[0]
			if derived := after.Derivations - mid.Derivations; derived != btoi(had == 0 && (fits || converts)) {
				t.Fatalf("spill %v seed %d op %d: edit of template %d (held %d derived bytes, used %d of %d) derived %d times",
					spill, seed, op, id, had, mid.UsedBytes, budget, derived)
			}
			s.mu.Lock()
			conversions = s.conversions - conversions
			s.mu.Unlock()
			if conversions != btoi(converts) {
				t.Fatalf("spill %v seed %d op %d: edit of template %d converted %d times, want %v", spill, seed, op, id, conversions, converts)
			}
			if (tc.DerivedBytes() != 0) != (had != 0 || fits || converts) {
				t.Fatalf("spill %v seed %d op %d: template %d holds %d derived bytes after the edit (had %d, fits %v, converts %v)",
					spill, seed, op, id, tc.DerivedBytes(), had, fits, converts)
			}
			s.mu.Lock()
			e, ok := s.entries[id]
			if converts && (!ok || !e.tc.IsDerivedForm()) {
				s.mu.Unlock()
				t.Fatalf("spill %v seed %d op %d: template %d converted but the tier holds %v", spill, seed, op, id, e)
			}
			s.mu.Unlock()
		}
		host := s.Stats()[0]
		if host.UsedBytes > budget {
			t.Fatalf("spill %v seed %d op %d (%s %d): RAM tier holds %d bytes, budget %d", spill, seed, op, what, id, host.UsedBytes, budget)
		}
		var sum, derived int64
		for _, info := range s.List() {
			if info.Tier == "disk" {
				if info.DerivedBytes != 0 {
					t.Fatalf("spill %v seed %d op %d: spilled template %d lists %d derived bytes", spill, seed, op, info.ID, info.DerivedBytes)
				}
				continue
			}
			sum += info.Bytes + info.DerivedBytes
			derived += info.DerivedBytes
			if info.ID == pinned && !info.Pinned {
				t.Fatalf("spill %v seed %d op %d: pinned template %d lost its pin", spill, seed, op, info.ID)
			}
		}
		if sum != host.UsedBytes || derived != host.DerivedBytes {
			t.Fatalf("spill %v seed %d op %d (%s %d): entries add up to %d (%d derived), the tier reports %d (%d)",
				spill, seed, op, what, id, sum, derived, host.UsedBytes, host.DerivedBytes)
		}
		s.mu.Lock()
		for eid, e := range s.entries {
			if got := e.tc.DerivedBytes(); got != e.derived {
				s.mu.Unlock()
				t.Fatalf("spill %v seed %d op %d (%s %d): template %d holds %d derived bytes, charged %d", spill, seed, op, what, id, eid, got, e.derived)
			}
			if host.Evictions > before.Evictions && e.derived != 0 && !e.formed() {
				s.mu.Unlock()
				t.Fatalf("spill %v seed %d op %d (%s %d): demoted a template while template %d kept %d bytes of derived K/V beside its Y",
					spill, seed, op, what, id, eid, e.derived)
			}
			if e.formed() && !spill {
				s.mu.Unlock()
				t.Fatalf("seed %d op %d: template %d became its derived form without a spill tier", seed, op, eid)
			}
		}
		s.mu.Unlock()
	}
	host := s.Stats()[0]
	if host.Derivations == 0 || host.Evictions == 0 || spill != (s.conversions > 0) {
		t.Fatalf("spill %v seed %d: the sequence never derived, never evicted, or converted %d times: %+v", spill, seed, s.conversions, host)
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
// beside its templates once it is full. Without a spill tier edits never
// derive and the tier holds what it did. With one, every edit's template
// becomes its derived form — K/V and trajectory in place of Y, which stays
// on disk — the tier stays within its budget through every conversion,
// eviction and promotion, and the edits keep their bits.
func TestDerivedWholeTemplateTierUnchanged(t *testing.T) {
	f := newDerivedFixture(t)
	size := f.template(1).SizeBytes()
	budget := 2*size + size/2

	s, err := NewTieredStore(TieredConfig{RAMBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 2; id++ {
		if err := s.PutCost(id, f.template(id), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for id := uint64(1); id <= 2; id++ {
			tc := s.Get(id)
			if tc == nil {
				t.Fatalf("template %d lost", id)
			}
			f.edit(id, tc, uint64(round)*7+id)
		}
	}
	host := s.Stats()[0]
	if host.Derivations != 0 || host.DerivedBytes != 0 || s.conversions != 0 {
		t.Fatalf("a whole-template tier without a spill tier derived: %+v", host)
	}
	if host.Entries != 2 || host.UsedBytes != 2*size {
		t.Fatalf("tier holds %d entries, %d bytes; want 2 templates", host.Entries, host.UsedBytes)
	}
	s.Close()

	s, err = NewTieredStore(TieredConfig{RAMBudget: budget, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	within := func(what string, id uint64) {
		t.Helper()
		if used := s.UsedBytes(); used > budget {
			t.Fatalf("after %s %d the tier holds %d bytes, budget %d", what, id, used, budget)
		}
	}
	for id := uint64(1); id <= 4; id++ {
		if err := s.PutCost(id, f.template(id), 0.1); err != nil {
			t.Fatal(err)
		}
		within("put", id)
	}
	for round := 0; round < 3; round++ {
		for id := uint64(1); id <= 4; id++ {
			tc := s.Get(id)
			if tc == nil {
				t.Fatalf("template %d lost", id)
			}
			within("get", id)
			f.edit(id, tc, uint64(round)*7+id)
			within("edit", id)
			if got := s.Get(id); got == nil || !got.IsDerivedForm() {
				t.Fatalf("round %d: template %d is not its derived form after an edit", round, id)
			}
		}
		s.Flush()
	}
	host = s.Stats()[0]
	formBytes := size + f.template(1).TrajectoryBytes()
	if s.conversions != 4 || host.Entries != 2 || host.UsedBytes != 2*formBytes || host.DerivedBytes != 2*size {
		t.Fatalf("want 4 conversions and 2 derived forms of %d bytes resident, got %d conversions: %+v", formBytes, s.conversions, host)
	}
	for id, e := range s.entries {
		if !e.formed() {
			t.Fatalf("resident template %d is not its derived form", id)
		}
	}
}

// derivedStore is a store over a spill tier in dir with room for two
// derived forms and no Y beside either, holding templates 1 to n, each
// edited once so that it converted.
func derivedStore(t *testing.T, f *derivedFixture, n uint64, dir string) *TieredStore {
	t.Helper()
	size := f.template(1).SizeBytes()
	s, err := NewTieredStore(TieredConfig{RAMBudget: 2*size + size/2, SpillDir: dir, Policy: PolicyLRU})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= n; id++ {
		if err := s.Put(id, f.template(id)); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(1); id <= n; id++ {
		f.edit(id, s.Get(id), id)
		if !s.Get(id).IsDerivedForm() {
			t.Fatalf("template %d did not convert: %+v", id, s.Stats()[0])
		}
	}
	if n > 2 && s.Len() != 2 {
		t.Fatalf("the tier holds %d derived forms, want 2", s.Len())
	}
	return s
}

// TestDerivedRePutNeverServesOldForm: a template put again under the same
// id after its derived form was spilled — pending, in flight or on disk —
// is never served from that form: every later edit matches the computed
// path on the new template.
func TestDerivedRePutNeverServesOldForm(t *testing.T) {
	f := newDerivedFixture(t)
	s := derivedStore(t, f, 3, t.TempDir())
	defer s.Close()
	for round := uint64(0); round < 9; round++ {
		// Template 1's derived form is demoted by now (pending or in
		// flight), or on disk after the flush of rounds 1 and 2 (mod 3);
		// in the last the new template's Y is on disk too before it is
		// demoted, beside whatever of the old form is left.
		if round%3 != 0 {
			s.Flush()
		}
		image := 100 + round
		if err := s.Put(1, f.templateOf(1, image)); err != nil {
			t.Fatal(err)
		}
		f.reference(1, image)
		if round%3 == 2 {
			s.Flush()
		}
		for _, id := range []uint64{2, 3, 1} { // demote 1 again, then bring it back
			tc := s.Get(id)
			if tc == nil {
				t.Fatalf("round %d: template %d lost", round, id)
			}
			if id == 1 && tc.IsDerivedForm() {
				t.Fatalf("round %d: the re-put template came back as a derived form", round)
			}
			f.edit(id, tc, 10*round+id)
		}
		f.edit(1, s.Get(1), 10*round+7) // its own derived form now
	}
}

// TestDerivedDeleteLeavesNoObject: a delete of a template whose derived form
// is resident, pending write-back, being written or on disk leaves neither
// spill object servable, and none on disk once the write-back has drained;
// a put that follows a delete is written after the delete's removals.
func TestDerivedDeleteLeavesNoObject(t *testing.T) {
	f := newDerivedFixture(t)
	for round := 0; round < 8; round++ {
		s := derivedStore(t, f, 3, t.TempDir()) // template 1's derived form demoted
		switch round % 4 {
		case 1:
			s.Flush() // on disk
		case 2:
			s.Get(1) // resident again, as the form
		case 3:
			for s.Stats()[1].Entries < 3 { // races the write-back
				runtime.Gosched()
			}
		}
		if err := s.Delete(1); err != nil {
			t.Fatal(err)
		}
		if tc := s.Get(1); tc != nil {
			t.Fatalf("round %d: deleted template served (derived form %v)", round, tc.IsDerivedForm())
		}
		if _, err := s.GetY(1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("round %d: deleted template's Y read: %v", round, err)
		}
		s.Flush()
		if s.spill.Has(1) || s.spill.has(spillKey{1, true}) {
			t.Fatalf("round %d: a spill object of the deleted template is on disk", round)
		}
		for _, info := range s.List() {
			if info.ID == 1 {
				t.Fatalf("round %d: deleted template listed: %+v", round, info)
			}
		}
		// A put right after a delete of the Y on disk: the removal goes
		// first, and the new Y is what the spill tier keeps.
		if err := s.Put(1, f.templateOf(1, 60)); err != nil {
			t.Fatal(err)
		}
		s.Flush()
		if err := s.Delete(1); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(1, f.templateOf(1, 61)); err != nil {
			t.Fatal(err)
		}
		s.Flush()
		if !s.spill.Has(1) || s.spill.has(spillKey{1, true}) {
			t.Fatalf("round %d: the spill tier lost the Y put after a delete", round)
		}
		s.Close()
	}
}

// TestDerivedConversionKeepsPinned: a conversion makes room by demoting
// colder templates, never a pinned one; when the pinned ones leave no room
// for the derived form it refuses, and the edit keeps its bits either way.
func TestDerivedConversionKeepsPinned(t *testing.T) {
	f := newDerivedFixture(t)
	size := f.template(1).SizeBytes()
	formBytes := size + f.template(1).TrajectoryBytes()
	// Room for two templates, not for a template beside a derived form.
	s, err := NewTieredStore(TieredConfig{RAMBudget: 2*size + size/8, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := uint64(1); id <= 2; id++ {
		if err := s.Put(id, f.template(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Pin(1); err != nil {
		t.Fatal(err)
	}
	f.edit(2, s.Get(2), 1)
	if host := s.Stats()[0]; s.conversions != 0 || host.Derivations != 0 || host.Entries != 2 {
		t.Fatalf("converted beside a pinned template with no room: %+v", host)
	}
	// The pinned template converts itself: it stays, template 2 goes.
	f.edit(1, s.Get(1), 2)
	host := s.Stats()[0]
	if s.conversions != 1 || host.Entries != 1 || host.UsedBytes != formBytes {
		t.Fatalf("pinned template's conversion: %+v", host)
	}
	// Template 2 cannot stay beside the pinned form: it is served from a
	// copy the tier does not keep, and derives nothing.
	for round := uint64(0); round < 2; round++ {
		for _, id := range []uint64{2, 1} {
			f.edit(id, s.Get(id), 3+2*round+id)
			if infos := s.List(); infos[0].ID != 1 || !infos[0].Pinned || !s.entries[1].formed() || infos[1].Tier != "disk" {
				t.Fatalf("round %d, template %d: %+v", round, id, infos)
			}
			if used := s.UsedBytes(); used != formBytes {
				t.Fatalf("round %d, template %d: the tier holds %d bytes", round, id, used)
			}
		}
	}
}

// TestDerivedConversionOnlyForFormEdits: under RAM pressure with the Y on
// the spill tier, an edit that reads Y (here under a step policy) neither
// derives beside the Y, which does not fit, nor converts the template, so
// that the next such edit still finds its Y resident; the first edit that
// runs on the derived form converts it.
func TestDerivedConversionOnlyForFormEdits(t *testing.T) {
	f := newDerivedFixture(t)
	size := f.template(1).SizeBytes()
	s, err := NewTieredStore(TieredConfig{RAMBudget: 2*size + size/2, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := uint64(1); id <= 2; id++ {
		if err := s.Put(id, f.template(id)); err != nil {
			t.Fatal(err)
		}
	}
	policy := diffusion.PolicyPresets()[0].Name
	for round := uint64(0); round < 2; round++ {
		for id := uint64(1); id <= 2; id++ {
			tc := s.Get(id)
			f.editPolicy(id, tc, 10*round+id, policy)
			tc.Release()
			if host := s.Stats()[0]; s.conversions != 0 || host.Derivations != 0 || host.Entries != 2 || host.UsedBytes != 2*size {
				t.Fatalf("round %d: an edit under step policy %q derived or converted: %+v", round, policy, host)
			}
		}
	}
	tc := s.Get(1)
	f.edit(1, tc, 99)
	tc.Release()
	if s.conversions != 1 || !s.entries[1].formed() {
		t.Fatalf("a plain edit did not convert: %d conversions", s.conversions)
	}
}

// TestDerivedConversionDroppedBeforeLanding: a template deleted, or put again,
// while its conversion's derivation is running charges nothing afterwards —
// the tier charged the larger of its Y and the form until then — and the
// derivation lands on nothing: the Y copy the edit ran on holds no derived
// state once it is done, and the edit keeps its bits.
func TestDerivedConversionDroppedBeforeLanding(t *testing.T) {
	f := newDerivedFixture(t)
	size := f.template(1).SizeBytes()
	formBytes := size + f.template(1).TrajectoryBytes()
	for _, put := range []bool{false, true} {
		s, err := NewTieredStore(TieredConfig{RAMBudget: 2*size + size/2, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		tc := f.template(1)
		if err := s.Put(1, tc); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(2, f.template(2)); err != nil {
			t.Fatal(err)
		}
		// The store's gate, with template 1 dropped between the grant and
		// the derivation it lets run.
		tc.SetDeriveGate(func(bytes int64, form bool) bool {
			if !s.grantDerived(1, tc, bytes, form) {
				t.Error("conversion refused")
				return false
			}
			if used := s.UsedBytes() - size; used != max(size, formBytes) { // template 2 stays
				t.Errorf("a converting template is charged %d bytes, want %d", used, max(size, formBytes))
			}
			if put {
				if err := s.Put(1, f.templateOf(1, 50)); err != nil {
					t.Error(err)
				}
			} else if err := s.Delete(1); err != nil {
				t.Error(err)
			}
			return true
		}, func() { s.converted(1, tc) })
		f.edit(1, tc, 3)
		want := size // template 2
		if put {
			want += size
		}
		if tc.DerivedBytes() != 0 || s.UsedBytes() != want {
			t.Fatalf("put %v: the dropped copy holds %d derived bytes, the tier %d bytes (want %d)", put, tc.DerivedBytes(), s.UsedBytes(), want)
		}
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

// TestDerivedFormStorageRecycled: derived forms promoted from disk are read
// into recycled storage once earlier forms' holders are done with theirs.
// Edits begun on a form that is demoted, and whose storage goes on to hold
// another form, under them — stepped one step at a time between promotions,
// and from four goroutines at once — keep the bits of the computed path.
// Run under -race.
func TestDerivedFormStorageRecycled(t *testing.T) {
	f := newDerivedFixture(t)
	s := derivedStore(t, f, 3, t.TempDir())
	defer s.Close()
	s.Flush() // every template's derived form is on disk
	for id := uint64(1); id <= 3; id++ {
		f.reference(id, id)
	}
	cfg := f.eng.Model.Config()
	request := func(rng *rand.Rand, tc *diffusion.TemplateCache) diffusion.EditRequest {
		return diffusion.EditRequest{
			Template: tc, Mask: mask.Blob(tensor.NewRNG(rng.Uint64()), cfg.LatentH, cfg.LatentW, 1+rng.Intn(cfg.Tokens()-1)),
			Prompt: "edit", Seed: rng.Uint64(), Mode: diffusion.EditCachedY,
		}
	}
	check := func(req diffusion.EditRequest, got *tensor.Matrix, id uint64) {
		req.Template = f.ref[id]
		want, err := f.eng.Edit(req)
		if err != nil {
			t.Error(err)
			return
		}
		if !tensor.Equal(got, want.FinalLatent) {
			t.Errorf("template %d: an edit on a recycled derived form differs from the computed path", id)
		}
	}

	type open struct {
		id   uint64
		req  diffusion.EditRequest
		sess *diffusion.EditSession
	}
	rng := rand.New(rand.NewSource(7))
	var sessions []open
	forms := 0
	for op := 0; op < 120; op++ {
		id := uint64(1 + rng.Intn(3))
		tc := s.Get(id)
		if tc.IsDerivedForm() {
			forms++
		}
		req := request(rng, tc)
		sess, err := f.eng.BeginEdit(req)
		if err != nil {
			t.Fatal(err)
		}
		tc.Release()
		sessions = append(sessions, open{id, req, sess})
		for i := 0; i < len(sessions); {
			o := sessions[i]
			if rng.Intn(2) == 0 {
				i++
				continue
			}
			if done, err := o.sess.Step(); err != nil {
				t.Fatal(err)
			} else if !done {
				i++
				continue
			}
			check(o.req, o.sess.Latent(), o.id)
			sessions = append(sessions[:i], sessions[i+1:]...)
		}
	}
	if forms < 100 {
		t.Fatalf("only %d of 120 edits ran on a derived form", forms)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 15; i++ {
				id := uint64(1 + rng.Intn(3))
				tc := s.Get(id)
				req := request(rng, tc)
				got, err := f.eng.Edit(req)
				tc.Release()
				if err != nil {
					t.Error(err)
					return
				}
				check(req, got.FinalLatent, id)
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestDerivedPromotionsRecycleStorage pins the recycling in cache_thrash's
// shape: 16 templates over a tier with room for two derived forms, edits on
// random templates with up to four sessions holding their forms across
// later promotions. After warm-up, at most 1% of the pool's gets allocate
// (0.2–0.5% over three seeds): the pool keeps what the tier turns over,
// demoted forms and forms whose last session has ended alike. A pool bounded
// at half the RAM budget drops storage that the next promotions allocate
// again, and fails this (12–13% of gets allocate).
func TestDerivedPromotionsRecycleStorage(t *testing.T) {
	f := newDerivedFixture(t)
	s := derivedStore(t, f, 16, t.TempDir())
	defer s.Close()
	s.Flush() // every demoted form is on disk: no write-back holds one
	cfg := f.eng.Model.Config()
	rng := rand.New(rand.NewSource(11))
	var open []*diffusion.EditSession
	step := func(sess *diffusion.EditSession) bool {
		done, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	const warm, ops = 100, 1100
	var gets0, fresh0 int64
	for op := 0; op < ops; op++ {
		if op == warm {
			gets0, fresh0 = s.spill.pool.Counts()
		}
		if len(open) == 4 { // the oldest session runs to its end first
			for !step(open[0]) {
			}
			open = open[1:]
		}
		tc := s.Get(uint64(1 + rng.Intn(16)))
		sess, err := f.eng.BeginEdit(diffusion.EditRequest{
			Template: tc, Mask: mask.Blob(tensor.NewRNG(rng.Uint64()), cfg.LatentH, cfg.LatentW, 1+rng.Intn(cfg.Tokens()-1)),
			Prompt: "edit", Seed: rng.Uint64(), Mode: diffusion.EditCachedY,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.Release()
		open = append(open, sess)
		for i := 0; i < len(open); { // each session steps at three operations in four
			if rng.Intn(4) == 0 || !step(open[i]) {
				i++
				continue
			}
			open = append(open[:i], open[i+1:]...)
		}
	}
	gets, fresh := s.spill.pool.Counts()
	gets, fresh = gets-gets0, fresh-fresh0
	t.Logf("after warm-up %d of %d slab gets allocated", fresh, gets)
	if gets < 1000 || fresh*100 > gets {
		t.Fatalf("after warm-up %d of %d slab gets allocated, want at most 1%%", fresh, gets)
	}
}

// formBlock returns the path and contents of the first block of template
// id's derived form on disk, which is the form's own: its header names id.
func formBlock(t *testing.T, bs *BlockStore, id uint64) (string, []byte) {
	t.Helper()
	bs.mu.Lock()
	m := bs.manifests[spillKey{id, true}]
	bs.mu.Unlock()
	if m == nil {
		t.Fatalf("template %d has no derived form on disk", id)
	}
	path := bs.blockPath(m.Blocks[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// plantVersion3 makes template id's derived form on disk a version-3 object,
// the layout older binaries wrote, which the reader refuses at its header.
func plantVersion3(t *testing.T, bs *BlockStore, id uint64) {
	t.Helper()
	path, raw := formBlock(t, bs, id)
	raw[4] = 3
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDerivedUnreadableFormFallsBack: a derived form on disk that does not
// read (here a version-3 object) counts one disk error, and the promotion
// serves the template's Y, whose edits keep the computed bits. The object
// is removed, so no later promotion reads it again, and the template's next
// demotion as a derived form writes a version-4 one, which promotes.
func TestDerivedUnreadableFormFallsBack(t *testing.T) {
	f := newDerivedFixture(t)
	s := derivedStore(t, f, 3, t.TempDir()) // 1 demoted as its derived form
	defer s.Close()
	s.Flush()
	plantVersion3(t, s.spill, 1)
	tc := s.Get(1)
	if tc == nil || tc.IsDerivedForm() {
		t.Fatal("an unreadable derived form did not fall back to the Y")
	}
	f.edit(1, tc, 5)
	s.Flush()
	if errs := s.Stats()[1].Errors; errs != 1 {
		t.Fatalf("%d disk errors, want 1", errs)
	}
	if s.spill.has(spillKey{1, true}) {
		t.Fatal("the unreadable derived form is still on disk")
	}
	for round := uint64(0); !s.spill.has(spillKey{1, true}); round++ {
		if round == 4 {
			t.Fatal("template 1's derived form was not written again")
		}
		for id := uint64(1); id <= 3; id++ {
			f.edit(id, s.Get(id), 10*round+id)
		}
		s.Flush()
	}
	if _, raw := formBlock(t, s.spill, 1); raw[4] != 4 {
		t.Fatalf("the derived form was written again as version %d", raw[4])
	}
	if _, ok := s.entries[1]; ok {
		t.Fatal("template 1 is resident with its derived form on disk")
	}
	got, res := s.GetTracked(1)
	if got == nil || !got.IsDerivedForm() || res.Tier != "disk" {
		t.Fatalf("the rewritten derived form did not promote: %+v", res)
	}
	f.edit(1, got, 99)
	if errs := s.Stats()[1].Errors; errs != 1 {
		t.Fatalf("%d disk errors, want 1", errs)
	}
}
