package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flashps/internal/tensor"
)

// TestTieredSpillStagingAfterEviction ports the §4.2 contract to the new
// store: a template evicted from RAM must stage back from the spill tier
// bit-identically.
func TestTieredSpillStagingAfterEviction(t *testing.T) {
	tc1 := newTemplateCache(t, 21)
	tc2 := newTemplateCache(t, 22)
	size := tc1.SizeBytes()
	// RAM holds only one template; the spill tier holds both.
	s, err := NewTieredStore(TieredConfig{RAMBudget: size, SpillDir: t.TempDir(), Policy: PolicyLRU})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(1, tc1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, tc2); err != nil {
		t.Fatal(err)
	}
	s.Flush() // force the write-backs to disk so the Get is a real read
	if s.Len() != 1 {
		t.Fatalf("RAM entries = %d, want 1", s.Len())
	}
	got, res := s.GetTracked(1)
	if got == nil {
		t.Fatal("evicted template lost")
	}
	if res.Tier != "disk" || !res.Promoted {
		t.Fatalf("GetTracked result = %+v, want disk promotion", res)
	}
	if s.DiskHits() != 1 {
		t.Fatalf("DiskHits = %d want 1", s.DiskHits())
	}
	if !tensor.Equal(got.Z0, tc1.Z0) {
		t.Fatal("staged template mutated")
	}
	// The promotion displaced template 2; both still listed, 2 on disk.
	infos := s.List()
	if len(infos) != 2 {
		t.Fatalf("List = %+v", infos)
	}
	if infos[0].ID != 1 || infos[0].Tier != "host+disk" {
		t.Fatalf("promoted info = %+v", infos[0])
	}
	if infos[1].ID != 2 || infos[1].Tier != "disk" {
		t.Fatalf("demoted info = %+v", infos[1])
	}
	// Unknown template: nil from both tiers.
	if tc, res := s.GetTracked(77); tc != nil || res.Tier != "" {
		t.Fatal("unknown template returned")
	}
}

// TestTieredPinnedSurvivesEviction: pinned templates are never demoted,
// deletes refuse with ErrPinned, and Pin promotes spill-only entries.
func TestTieredPinnedSurvivesEviction(t *testing.T) {
	tcs := []uint64{31, 32, 33}
	s, err := NewTieredStore(TieredConfig{
		RAMBudget: 2 * newTemplateCache(t, 31).SizeBytes(),
		SpillDir:  t.TempDir(), Policy: PolicyLRU,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, id := range tcs {
		tc := newTemplateCache(t, id)
		if err := s.PutCost(id, tc, float64(i+1)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := s.Pin(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Budget fits 2; pinned 31 must still be resident, 32 demoted.
	if _, res := s.GetTracked(31); res.Tier != "host" {
		t.Fatalf("pinned template served from %q, want host", res.Tier)
	}
	if err := s.Delete(31); !errors.Is(err, ErrPinned) {
		t.Fatalf("delete pinned = %v", err)
	}
	infos := s.List()
	var pinned int
	for _, in := range infos {
		if in.Pinned {
			pinned++
			if in.ID != 31 {
				t.Fatalf("wrong pinned template: %+v", in)
			}
		}
	}
	if pinned != 1 {
		t.Fatalf("pinned count = %d", pinned)
	}
	// Pin the demoted template: it must be promoted back into RAM.
	s.Flush()
	demoted := uint64(32)
	if _, res := s.GetTracked(demoted); res.Tier == "host" {
		demoted = 33 // whichever got demoted; re-promote shifts the other out
	}
	if err := s.Pin(demoted); err != nil {
		t.Fatal(err)
	}
	if _, res := s.GetTracked(demoted); res.Tier != "host" {
		t.Fatalf("pin did not promote %d (served from %q)", demoted, res.Tier)
	}
	if err := s.Unpin(31); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(31); err != nil {
		t.Fatalf("delete after unpin = %v", err)
	}
}

// TestCostAwareNeverEvictsBetterKeep is the eviction-policy property
// test: over random candidate sets, the cost-aware victim is never
// pinned, and never a template whose keep score strictly exceeds another
// unpinned candidate's (i.e. the chosen victim always minimizes the
// score among unpinned entries).
func TestCostAwareNeverEvictsBetterKeep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(8)
		nowSeq := uint64(1000)
		cands := make([]*entryMeta, n)
		unpinned := 0
		for i := range cands {
			cands[i] = &entryMeta{
				id:     uint64(i + 1),
				pinned: rng.Float64() < 0.3,
				cost:   float64(rng.Intn(4)) * rng.Float64() * 10,
				ratio:  float64(rng.Intn(3)) * rng.Float64(),
				seq:    uint64(rng.Intn(1000)),
			}
			if !cands[i].pinned {
				unpinned++
			}
		}
		v := PolicyCostAware.victim(cands, nowSeq)
		if unpinned == 0 {
			if v != -1 {
				t.Fatalf("trial %d: victim %d chosen from all-pinned set", trial, v)
			}
			continue
		}
		if v < 0 || cands[v].pinned {
			t.Fatalf("trial %d: invalid victim %d", trial, v)
		}
		vs := cands[v].keepScore(nowSeq)
		for i, c := range cands {
			if c.pinned || i == v {
				continue
			}
			if vs > c.keepScore(nowSeq) {
				t.Fatalf("trial %d: evicted %d (score %g) while costlier-to-recompute victim %d (score %g) was available",
					trial, cands[v].id, vs, c.id, c.keepScore(nowSeq))
			}
		}
	}
}

// TestCostAwareBeatsLRU is the acceptance benchmark: with three templates
// cycling through a two-slot RAM tier, one of them 100× costlier to
// recompute, the cost-aware policy keeps the expensive template resident
// and pays strictly less total recompute cost than plain LRU.
func TestCostAwareBeatsLRU(t *testing.T) {
	tc := newTemplateCache(t, 41)
	size := tc.SizeBytes()
	cost := map[uint64]float64{1: 10, 2: 0.1, 3: 0.1}

	run := func(p Policy) float64 {
		s, err := NewTieredStore(TieredConfig{RAMBudget: 2 * size, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		total := 0.0
		for round := 0; round < 10; round++ {
			for id := uint64(1); id <= 3; id++ {
				if s.Get(id) != nil {
					continue
				}
				// Miss: pay the recompute cost and reinstall.
				total += cost[id]
				if err := s.PutCost(id, tc, cost[id]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return total
	}

	lru := run(PolicyLRU)
	aware := run(PolicyCostAware)
	if aware >= lru {
		t.Fatalf("cost-aware total recompute cost %g not better than LRU %g", aware, lru)
	}
	// LRU thrashes on the 3-template cycle: every access misses.
	if lru < 100 {
		t.Fatalf("LRU expected to thrash (≈102), got %g", lru)
	}
	// Cost-aware keeps template 1 (cost 10) resident after the first round.
	if aware > 20 {
		t.Fatalf("cost-aware expected ≈12, got %g", aware)
	}
}

// TestTieredObserveFeedsScore: a template repeatedly edited with large
// masks outranks one with tiny masks at equal cost and recency.
func TestTieredObserveFeedsScore(t *testing.T) {
	tc := newTemplateCache(t, 51)
	size := tc.SizeBytes()
	s, err := NewTieredStore(TieredConfig{RAMBudget: 2 * size, Policy: PolicyCostAware})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutCost(1, tc, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCost(2, tc, 1); err != nil {
		t.Fatal(err)
	}
	s.Observe(1, 0.9) // big masks → expensive to lose
	s.Observe(2, 0.01)
	// Same recency for both, then force an eviction.
	if err := s.PutCost(3, tc, 1); err != nil {
		t.Fatal(err)
	}
	if s.Get(1) == nil {
		t.Fatal("large-mask template evicted over small-mask one")
	}
	if s.Get(2) != nil {
		t.Fatal("small-mask template survived")
	}
}

// TestTieredStoreSpillOnlyOversize: templates bigger than the whole RAM
// budget live on the spill tier alone instead of failing.
func TestTieredStoreSpillOnlyOversize(t *testing.T) {
	tc := newTemplateCache(t, 61)
	s, err := NewTieredStore(TieredConfig{RAMBudget: tc.SizeBytes() / 2, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(7, tc); err != nil {
		t.Fatalf("oversize put with spill tier = %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("oversize template resident in RAM")
	}
	s.Flush()
	got, res := s.GetTracked(7)
	if got == nil || res.Tier != "disk" {
		t.Fatalf("oversize template not served from disk: %+v", res)
	}
	if s.Len() != 0 {
		t.Fatal("oversize template promoted into too-small RAM")
	}
	infos := s.List()
	if len(infos) != 1 || infos[0].Tier != "disk" {
		t.Fatalf("List = %+v", infos)
	}
}

// TestTieredStoreAllPinnedCacheFull: with no spill tier and every
// resident template pinned, a new put fails with ErrCacheFull.
func TestTieredStoreAllPinnedCacheFull(t *testing.T) {
	tc := newTemplateCache(t, 71)
	size := tc.SizeBytes()
	s, err := NewTieredStore(TieredConfig{RAMBudget: 2 * size})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := uint64(1); id <= 2; id++ {
		if err := s.Put(id, tc); err != nil {
			t.Fatal(err)
		}
		if err := s.Pin(id); err != nil {
			t.Fatal(err)
		}
	}
	err = s.Put(3, tc)
	if !errors.Is(err, ErrCacheFull) {
		t.Fatalf("put into fully-pinned store = %v, want ErrCacheFull", err)
	}
	if s.Get(3) != nil {
		t.Fatal("rejected template still served")
	}
	// With a spill tier the same put succeeds as spill-only.
	s2, err := NewTieredStore(TieredConfig{RAMBudget: 2 * size, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for id := uint64(1); id <= 2; id++ {
		if err := s2.Put(id, tc); err != nil {
			t.Fatal(err)
		}
		if err := s2.Pin(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Put(3, tc); err != nil {
		t.Fatalf("pinned-full put with spill = %v", err)
	}
	s2.Flush()
	if got, res := s2.GetTracked(3); got == nil || res.Tier != "disk" {
		t.Fatalf("spilled newcomer not served from disk: %+v", res)
	}
}

// TestTieredStoreRestartRecovery: a new store over an old spill dir
// serves the previous process's templates (the examples/disk_cache flow),
// in both forms: a template whose derived form was spilled comes back as
// that form, one whose was not — or whose form is a version-3 object — as
// its Y, and edits keep their bits.
func TestTieredStoreRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	tc := newTemplateCache(t, 81)
	s, err := NewTieredStore(TieredConfig{RAMBudget: 4 * tc.SizeBytes(), SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(5, tc); err != nil {
		t.Fatal(err)
	}
	s.Close() // drains the write-back queue

	re, err := NewTieredStore(TieredConfig{RAMBudget: 4 * tc.SizeBytes(), SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ids := re.SpilledIDs(); len(ids) != 1 || ids[0] != 5 {
		t.Fatalf("SpilledIDs = %v", ids)
	}
	got, res := re.GetTracked(5)
	if got == nil || res.Tier != "disk" {
		t.Fatalf("recovered template not staged from disk: %+v", res)
	}
	if !tensor.Equal(got.Z0, tc.Z0) {
		t.Fatal("recovered template mutated")
	}

	// A derived form left by an older binary (version 3) does not read:
	// that template comes back as its Y, with one disk error.
	f := newDerivedFixture(t)
	for _, old := range []bool{false, true} {
		dir = t.TempDir()
		s = derivedStore(t, f, 3, dir) // 1 demoted as its derived form, 2 and 3 resident
		s.Close()
		if old {
			plantVersion3(t, s.spill, 1)
		}
		re, err = NewTieredStore(TieredConfig{RAMBudget: 8 * tc.SizeBytes(), SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if ids := re.SpilledIDs(); fmt.Sprint(ids) != "[1 2 3]" {
			t.Fatalf("SpilledIDs = %v", ids)
		}
		for id := uint64(1); id <= 3; id++ {
			got, res := re.GetTracked(id)
			if got == nil || res.Tier != "disk" || got.IsDerivedForm() != (id == 1 && !old) {
				t.Fatalf("version-3 form %v: template %d recovered as %+v, derived form %v", old, id, res, got != nil && got.IsDerivedForm())
			}
			f.edit(id, got, 50+id)
		}
		if errs := re.Stats()[1].Errors; errs != btoi(old) {
			t.Fatalf("version-3 form %v: %d disk errors", old, errs)
		}
	}
}

// TestCacheStress drives concurrent put/get/evict/spill/pin/delete
// traffic through one store; run under -race via `make cache-stress`.
func TestCacheStress(t *testing.T) {
	tcs := []uint64{91, 92, 93, 94}
	base := newTemplateCache(t, 91)
	size := base.SizeBytes()
	s, err := NewTieredStore(TieredConfig{
		RAMBudget: 2 * size, SpillDir: t.TempDir(), Policy: PolicyCostAware,
		Observer: func(tier, op string, ops uint64, bytes float64) {},
		Transfer: func(op string, bytes int64, seconds float64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 60; i++ {
				id := tcs[rng.Intn(len(tcs))]
				switch rng.Intn(6) {
				case 0:
					_ = s.PutCost(id, base, rng.Float64())
				case 1:
					s.Get(id)
				case 2:
					s.Observe(id, rng.Float64())
				case 3:
					if err := s.Pin(id); err == nil {
						_ = s.Unpin(id)
					}
				case 4:
					_ = s.Delete(id)
				case 5:
					s.List()
					s.Stats()
				}
			}
		}()
	}
	wg.Wait()
	s.Flush()
	host := s.Stats()[0]
	if host.UsedBytes > host.CapacityBytes && host.Pinned < host.Entries {
		t.Fatalf("RAM tier over budget with evictable entries: %+v", host)
	}
	for _, id := range tcs {
		_ = s.Put(id, base)
	}
	s.Close()
	// Post-close: data is durable and listable.
	if got := len(s.List()); got == 0 {
		t.Fatal("store empty after stress run")
	}
	if fmt.Sprint(s.Stats()) == "" {
		t.Fatal("stats unavailable")
	}
}
