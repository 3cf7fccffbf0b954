package cache

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"flashps/internal/diffusion"
)

// Sentinel errors of the tiered store, matched with errors.Is by the
// serving plane's error mapper.
var (
	// ErrNotFound reports an id absent from every tier.
	ErrNotFound = errors.New("cache: template not found")
	// ErrPinned reports a delete attempted against a pinned template.
	ErrPinned = errors.New("cache: template is pinned")
	// ErrCacheFull reports that the RAM tier cannot take the template:
	// no spill tier is configured and every possible victim is pinned
	// (or the template alone exceeds the budget).
	ErrCacheFull = errors.New("cache: cache full")
)

// Info describes one stored template for the /v1/templates listing.
type Info struct {
	ID    uint64
	Bytes int64
	// DerivedBytes is the derived K/V held beside a RAM-resident template
	// (charged to the RAM budget, not part of Bytes, never on disk).
	DerivedBytes int64
	Tier         string // "host", "disk", or "host+disk"
	Pinned       bool
	Hits         int64
	LastUsed     time.Time
}

// TierStats is one tier's row in GET /v1/cache/stats.
type TierStats struct {
	Tier          string
	CapacityBytes int64 // 0 = unbounded (disk)
	UsedBytes     int64 // host: templates + derived K/V; disk: physical bytes after dedup
	DerivedBytes  int64 // host only: the derived K/V share of UsedBytes
	Derivations   int64 // host only: derivations granted
	LogicalBytes  int64 // disk only: bytes before dedup
	Entries       int
	Pinned        int
	Hits          int64
	Misses        int64
	Evictions     int64
	Errors        int64
	Blocks        int
	SharedBlocks  int
	DedupRatio    float64
}

// GetResult reports where a lookup was served from.
type GetResult struct {
	Tier        string // "host" or "disk"; "" on a full miss
	Promoted    bool   // staged from the spill tier into RAM
	Bytes       int64
	LoadSeconds float64 // wall seconds of the disk read, 0 if none
}

// TieredConfig configures a TieredStore.
type TieredConfig struct {
	// RAMBudget bounds the resident tier in bytes. Required.
	RAMBudget int64
	// SpillDir, when set, enables the content-addressed disk tier;
	// evicted and freshly-put templates are written back asynchronously.
	SpillDir string
	// Policy selects the eviction policy (default PolicyCostAware).
	Policy Policy
	// BlockBytes is the dedup chunk size (default DefaultBlockBytes).
	BlockBytes int
	// Observer, when set, receives per-tier op accounting: tier is
	// "host"/"disk", op is hit/miss/store/evict/load. Called outside the
	// store's lock.
	Observer func(tier, op string, ops uint64, bytes float64)
	// Transfer, when set, receives timed spill transfers — op "load" for
	// promotions read from disk, "store" for write-backs — so the
	// calibration plane can fit the spill-load law from real IO.
	Transfer func(op string, bytes int64, seconds float64)
}

type archMeta struct {
	cost     float64
	ratio    float64
	hits     int64
	lastUsed time.Time
}

type ramEntry struct {
	tc       *diffusion.TemplateCache
	meta     entryMeta
	derived  int64 // derived K/V bytes granted to tc, charged beside meta.bytes
	lastUsed time.Time
}

type obsEvent struct {
	tier, op string
	n        uint64
	bytes    float64
}

// TieredStore is the production template store: a capacity-bounded RAM
// tier over an optional content-addressed disk spill tier. Puts land in
// RAM and write back to disk asynchronously; misses promote from disk
// (singleflighted) while evictions demote under the configured policy.
// Pinned templates are never evicted and cannot be deleted.
//
// The RAM budget also covers the resident templates' derived K/V
// (diffusion.TemplateCache.SetDeriveGate): the store grants a derivation
// only when its bytes fit beside everything resident, and derived state —
// rebuilt in a couple of milliseconds — is what the tier gives up first:
// an admission or promotion that needs room strips it from the coldest
// templates before any template is demoted. It is never written to the
// spill tier.
type TieredStore struct {
	budget   int64
	policy   Policy
	spill    *BlockStore
	observer func(tier, op string, ops uint64, bytes float64)
	transfer func(op string, bytes int64, seconds float64)

	mu       sync.Mutex
	work     *sync.Cond
	entries  map[uint64]*ramEntry
	archived map[uint64]archMeta // policy metadata surviving demotion
	pending  map[uint64]*diffusion.TemplateCache
	queue    []uint64
	loading  map[uint64]chan struct{} // singleflight disk promotions
	seq      uint64
	used     int64 // resident templates plus their derived K/V
	writing  int
	// writingID is the template the write-back goroutine is saving while
	// writing > 0, and stale says it was deleted since that save began: the
	// copy about to land is fenced from every reader and removed on landing.
	writingID uint64
	stale     bool
	closed    bool

	hostHits, hostMisses, evictions int64
	derivations                     int64
	diskHits, diskErrors            int64
	promotions                      int64

	wg sync.WaitGroup
}

// NewTieredStore builds the store and, when a spill dir is configured,
// opens the block store (recovering templates spilled by a previous
// process) and starts the write-back goroutine.
func NewTieredStore(cfg TieredConfig) (*TieredStore, error) {
	if cfg.RAMBudget <= 0 {
		return nil, fmt.Errorf("cache: RAM budget must be positive, got %d", cfg.RAMBudget)
	}
	s := &TieredStore{
		budget:   cfg.RAMBudget,
		policy:   cfg.Policy,
		observer: cfg.Observer,
		transfer: cfg.Transfer,
		entries:  make(map[uint64]*ramEntry),
		archived: make(map[uint64]archMeta),
		pending:  make(map[uint64]*diffusion.TemplateCache),
		loading:  make(map[uint64]chan struct{}),
	}
	s.work = sync.NewCond(&s.mu)
	if cfg.SpillDir != "" {
		sp, err := NewBlockStore(cfg.SpillDir, cfg.BlockBytes)
		if err != nil {
			return nil, err
		}
		s.spill = sp
		s.wg.Add(1)
		go s.writer()
	}
	return s, nil
}

func (s *TieredStore) emit(evs []obsEvent) {
	if s.observer == nil {
		return
	}
	for _, e := range evs {
		s.observer(e.tier, e.op, e.n, e.bytes)
	}
}

// Put stores a template with unknown recompute cost.
func (s *TieredStore) Put(id uint64, tc *diffusion.TemplateCache) error {
	return s.PutCost(id, tc, 0)
}

// PutCost stores a template, recording the seconds its PrepareTemplate
// took — the recompute-cost term of the cost-aware eviction score. The
// template becomes resident immediately; the spill copy is written back
// asynchronously (Flush waits for it).
func (s *TieredStore) PutCost(id uint64, tc *diffusion.TemplateCache, recomputeSeconds float64) error {
	if tc == nil {
		return fmt.Errorf("cache: nil template cache for %d", id)
	}
	b := tc.SizeBytes()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("cache: store closed")
	}
	if b > s.budget && s.spill == nil {
		s.mu.Unlock()
		return fmt.Errorf("cache: template %d needs %d bytes, RAM budget is %d: %w", id, b, s.budget, ErrCacheFull)
	}
	evs := []obsEvent{{"host", "store", 1, float64(b)}}
	s.gateLocked(id, tc)
	if e, ok := s.entries[id]; ok {
		s.stripLocked(e)
		s.used += b - e.meta.bytes
		e.tc = tc
		e.meta.bytes = b
		if recomputeSeconds > 0 {
			e.meta.cost = recomputeSeconds
		}
		s.seq++
		e.meta.seq = s.seq
		e.lastUsed = time.Now()
		s.enqueueLocked(id, tc)
		evs2, err := s.evictOverLocked(id)
		s.mu.Unlock()
		s.emit(append(evs, evs2...))
		return err
	}
	if b > s.budget {
		// Larger than the whole RAM tier: spill-only residency.
		s.archived[id] = archMeta{cost: recomputeSeconds, lastUsed: time.Now()}
		s.enqueueLocked(id, tc)
		s.mu.Unlock()
		s.emit(evs)
		return nil
	}
	s.seq++
	e := &ramEntry{tc: tc, lastUsed: time.Now()}
	e.meta = entryMeta{id: id, bytes: b, seq: s.seq, cost: recomputeSeconds}
	if a, ok := s.archived[id]; ok {
		if e.meta.cost <= 0 {
			e.meta.cost = a.cost
		}
		e.meta.ratio = a.ratio
		e.meta.hits = a.hits
		delete(s.archived, id)
	}
	s.entries[id] = e
	s.used += b
	s.enqueueLocked(id, tc)
	evs2, err := s.evictOverLocked(id)
	s.mu.Unlock()
	s.emit(append(evs, evs2...))
	return err
}

// Get returns the template or nil, promoting from the spill tier on a
// RAM miss.
func (s *TieredStore) Get(id uint64) *diffusion.TemplateCache {
	tc, _ := s.GetTracked(id)
	return tc
}

// GetTracked is Get plus provenance: which tier served the lookup and,
// for promotions, the measured disk-read time.
func (s *TieredStore) GetTracked(id uint64) (*diffusion.TemplateCache, GetResult) {
	s.mu.Lock()
	for {
		if e, ok := s.entries[id]; ok {
			s.seq++
			e.meta.seq = s.seq
			e.meta.hits++
			e.lastUsed = time.Now()
			s.hostHits++
			b := e.meta.bytes
			tc := e.tc
			s.mu.Unlock()
			s.emit([]obsEvent{{"host", "hit", 1, float64(b)}})
			return tc, GetResult{Tier: "host", Bytes: b}
		}
		ch, inflight := s.loading[id]
		if !inflight {
			break
		}
		// Another goroutine is promoting this id; wait and re-check.
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
	s.hostMisses++
	evs := []obsEvent{{"host", "miss", 1, 0}}
	if tc, ok := s.pending[id]; ok {
		// Still in the write-back buffer: promote without disk IO.
		s.diskHits++
		evs = append(evs, obsEvent{"disk", "load", 1, float64(tc.SizeBytes())})
		evs = append(evs, s.promoteLocked(id, tc, true)...)
		b := tc.SizeBytes()
		s.mu.Unlock()
		s.emit(evs)
		return tc, GetResult{Tier: "disk", Promoted: true, Bytes: b}
	}
	if !s.spilledLocked(id) {
		s.mu.Unlock()
		s.emit(evs)
		return nil, GetResult{}
	}
	ch := make(chan struct{})
	s.loading[id] = ch
	s.mu.Unlock()
	s.emit(evs)

	start := time.Now()
	tc, err := s.spill.Load(id)
	secs := time.Since(start).Seconds()

	s.mu.Lock()
	delete(s.loading, id)
	close(ch)
	if err != nil {
		s.diskErrors++
		s.mu.Unlock()
		return nil, GetResult{}
	}
	s.diskHits++
	b := tc.SizeBytes()
	evs = append([]obsEvent{{"disk", "load", 1, float64(b)}}, s.promoteLocked(id, tc, true)...)
	s.mu.Unlock()
	s.emit(evs)
	if s.transfer != nil {
		s.transfer("load", b, secs)
	}
	return tc, GetResult{Tier: "disk", Promoted: true, Bytes: b, LoadSeconds: secs}
}

// promoteLocked inserts a template loaded from the spill tier into RAM,
// restoring any archived policy metadata. hit stamps a use on the entry.
func (s *TieredStore) promoteLocked(id uint64, tc *diffusion.TemplateCache, hit bool) []obsEvent {
	b := tc.SizeBytes()
	s.gateLocked(id, tc)
	if b > s.budget {
		return nil // can never be resident; callers serve the loaded copy
	}
	s.seq++
	e := &ramEntry{tc: tc, lastUsed: time.Now()}
	e.meta = entryMeta{id: id, bytes: b, seq: s.seq}
	if a, ok := s.archived[id]; ok {
		e.meta.cost = a.cost
		e.meta.ratio = a.ratio
		e.meta.hits = a.hits
		delete(s.archived, id)
	}
	if hit {
		e.meta.hits++
	}
	s.entries[id] = e
	s.used += b
	s.promotions++
	evs, _ := s.evictOverLocked(id)
	return evs
}

// gateLocked makes the store the judge of tc's derived K/V, dropping any it
// did not grant: grantDerived refuses unless tc is the resident copy of id,
// so a copy too large for the tier, demoted or deleted derives nothing.
func (s *TieredStore) gateLocked(id uint64, tc *diffusion.TemplateCache) {
	tc.SetDeriveGate(func(bytes int64) bool { return s.grantDerived(id, tc, bytes) })
}

// grantDerived charges bytes of derived K/V to the RAM budget if tc is
// resident and they fit. It makes no room: derived state never displaces
// anything, so a tier sized in whole templates behaves as if it did not
// exist.
func (s *TieredStore) grantDerived(id uint64, tc *diffusion.TemplateCache, bytes int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok || e.tc != tc || s.used-e.derived+bytes > s.budget {
		return false
	}
	s.used += bytes - e.derived
	e.derived = bytes
	s.derivations++
	return true
}

// stripLocked takes an entry's derived K/V back, granted or already built.
func (s *TieredStore) stripLocked(e *ramEntry) {
	if e.derived == 0 {
		return
	}
	s.used -= e.derived
	e.derived = 0
	e.tc.DropDerived()
}

// coldestDerivedLocked returns the entry the policy would evict first among
// those holding derived K/V, pinned or not (a pin protects the template,
// which stripping leaves resident), or nil when none holds any.
func (s *TieredStore) coldestDerivedLocked() *ramEntry {
	var cands []*entryMeta
	for _, e := range s.entries {
		if e.derived > 0 {
			m := e.meta
			m.pinned = false
			cands = append(cands, &m)
		}
	}
	if v := s.policy.victim(cands, s.seq); v >= 0 {
		return s.entries[cands[v].id]
	}
	return nil
}

// evictOverLocked makes the RAM tier fit its budget: it first strips
// derived K/V, coldest template first, and only then demotes entries,
// protecting the just-inserted id unless every other entry is pinned —
// then the newcomer itself spills (or, with no spill tier, the put
// fails with ErrCacheFull).
func (s *TieredStore) evictOverLocked(protect uint64) ([]obsEvent, error) {
	var evs []obsEvent
	for s.used > s.budget {
		if e := s.coldestDerivedLocked(); e != nil {
			s.stripLocked(e)
			continue
		}
		cands := make([]*entryMeta, 0, len(s.entries))
		for id, e := range s.entries {
			if id == protect {
				continue
			}
			cands = append(cands, &e.meta)
		}
		v := s.policy.victim(cands, s.seq)
		if v < 0 {
			e, ok := s.entries[protect]
			if !ok || e.meta.pinned {
				return evs, nil
			}
			evs = append(evs, s.demoteLocked(protect)...)
			if s.spill == nil {
				return evs, fmt.Errorf("cache: all %d resident templates pinned: %w", len(s.entries), ErrCacheFull)
			}
			return evs, nil
		}
		evs = append(evs, s.demoteLocked(cands[v].id)...)
	}
	return evs, nil
}

// demoteLocked drops an entry from RAM, archiving its policy metadata so
// a later promotion scores correctly. The spilled copy (written back at
// put time) is the surviving replica.
func (s *TieredStore) demoteLocked(id uint64) []obsEvent {
	e, ok := s.entries[id]
	if !ok {
		return nil
	}
	s.stripLocked(e)
	delete(s.entries, id)
	s.used -= e.meta.bytes
	s.evictions++
	s.archived[id] = archMeta{cost: e.meta.cost, ratio: e.meta.ratio, hits: e.meta.hits, lastUsed: e.lastUsed}
	return []obsEvent{{"host", "evict", 1, float64(e.meta.bytes)}}
}

// Observe folds a served mask ratio into the template's EWMA — the
// mask-ratio term of the cost-aware eviction score.
const ratioEWMA = 0.3

func (s *TieredStore) Observe(id uint64, maskRatio float64) {
	if maskRatio <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		if e.meta.ratio <= 0 {
			e.meta.ratio = maskRatio
		} else {
			e.meta.ratio += ratioEWMA * (maskRatio - e.meta.ratio)
		}
		return
	}
	if a, ok := s.archived[id]; ok {
		if a.ratio <= 0 {
			a.ratio = maskRatio
		} else {
			a.ratio += ratioEWMA * (maskRatio - a.ratio)
		}
		s.archived[id] = a
	}
}

// Pin makes a template eviction-proof, promoting it into RAM first if it
// only lives on the spill tier. Returns ErrNotFound for unknown ids and
// ErrCacheFull when RAM is entirely pinned by others.
func (s *TieredStore) Pin(id uint64) error {
	s.mu.Lock()
	if e, ok := s.entries[id]; ok {
		e.meta.pinned = true
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	tc, _ := s.GetTracked(id)
	if tc == nil {
		return fmt.Errorf("cache: pin %d: %w", id, ErrNotFound)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		e.meta.pinned = true
		return nil
	}
	return fmt.Errorf("cache: pin %d: %w", id, ErrCacheFull)
}

// Unpin clears the pin. Unpinning a spill-only template is a no-op
// success (spilled entries are never pinned).
func (s *TieredStore) Unpin(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		e.meta.pinned = false
		return nil
	}
	if _, ok := s.pending[id]; ok {
		return nil
	}
	if s.spilledLocked(id) {
		return nil
	}
	return fmt.Errorf("cache: unpin %d: %w", id, ErrNotFound)
}

// Delete removes a template from every tier. Pinned templates refuse
// with ErrPinned; unknown ids return ErrNotFound. It does not wait for a
// write-back of the template that is already in flight: it marks that
// write stale, which hides the landing copy from every reader until the
// write-back goroutine removes it.
func (s *TieredStore) Delete(id uint64) error {
	s.mu.Lock()
	e, resident := s.entries[id]
	if resident && e.meta.pinned {
		s.mu.Unlock()
		return fmt.Errorf("cache: delete %d: %w", id, ErrPinned)
	}
	_, wasPending := s.pending[id]
	delete(s.pending, id)
	if resident {
		s.stripLocked(e)
		delete(s.entries, id)
		s.used -= e.meta.bytes
	}
	_, wasArchived := s.archived[id]
	delete(s.archived, id)
	// A copy an earlier Delete already fenced is the write-back
	// goroutine's to remove, and nothing this call found.
	onDisk := s.spilledLocked(id)
	if s.writing > 0 && s.writingID == id {
		s.stale = true
	}
	s.mu.Unlock()
	if onDisk {
		s.spill.Delete(id)
	}
	if !resident && !wasPending && !onDisk && !wasArchived {
		return fmt.Errorf("cache: delete %d: %w", id, ErrNotFound)
	}
	return nil
}

// Prefetch asynchronously promotes spilled templates into RAM — called
// on startup for templates recovered from a previous process's spill
// dir, and after prepare for templates expected to be edited soon.
func (s *TieredStore) Prefetch(ids ...uint64) {
	if s.spill == nil || len(ids) == 0 {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		for _, id := range ids {
			if s.prefetchOne(id) {
				return // store closed
			}
		}
	}()
}

// prefetchOne promotes one spilled template without charging hit/miss
// counters; reports whether the store closed underneath it.
func (s *TieredStore) prefetchOne(id uint64) (closed bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true
	}
	if _, ok := s.entries[id]; ok {
		s.mu.Unlock()
		return false
	}
	if _, inflight := s.loading[id]; inflight {
		s.mu.Unlock()
		return false
	}
	if tc, ok := s.pending[id]; ok {
		evs := s.promoteLocked(id, tc, false)
		s.mu.Unlock()
		s.emit(evs)
		return false
	}
	if !s.spilledLocked(id) {
		s.mu.Unlock()
		return false
	}
	ch := make(chan struct{})
	s.loading[id] = ch
	s.mu.Unlock()

	start := time.Now()
	tc, err := s.spill.Load(id)
	secs := time.Since(start).Seconds()

	s.mu.Lock()
	delete(s.loading, id)
	close(ch)
	if err != nil {
		s.diskErrors++
		s.mu.Unlock()
		return false
	}
	b := tc.SizeBytes()
	evs := append([]obsEvent{{"disk", "load", 1, float64(b)}}, s.promoteLocked(id, tc, false)...)
	s.mu.Unlock()
	s.emit(evs)
	if s.transfer != nil {
		s.transfer("load", b, secs)
	}
	return false
}

// enqueueLocked schedules an asynchronous write-back of the template to
// the spill tier.
func (s *TieredStore) enqueueLocked(id uint64, tc *diffusion.TemplateCache) {
	if s.spill == nil {
		return
	}
	s.pending[id] = tc
	s.queue = append(s.queue, id)
	s.work.Broadcast()
}

// writer is the single write-back goroutine: it drains the spill queue,
// persisting each pending template and cleaning up after deletes that
// raced the write.
func (s *TieredStore) writer() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for len(s.queue) == 0 && !s.closed {
			s.work.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		tc, ok := s.pending[id]
		if !ok {
			// Deleted or already written; a Flush may be waiting on the
			// queue this just emptied.
			s.work.Broadcast()
			continue
		}
		s.writing++
		s.writingID = id
		s.mu.Unlock()

		start := time.Now()
		err := s.spill.Save(id, tc)
		secs := time.Since(start).Seconds()
		b := tc.SizeBytes()
		if err == nil {
			s.emit([]obsEvent{{"disk", "store", 1, float64(b)}})
			if s.transfer != nil {
				s.transfer("store", b, secs)
			}
		}

		s.mu.Lock()
		s.writing--
		if err != nil {
			s.diskErrors++
		}
		if s.pending[id] == tc {
			delete(s.pending, id)
		}
		if s.stale {
			// Deleted while the write was in flight: the copy that just
			// landed must not resurrect it. A template put again under
			// the same id since is still pending and is written next.
			s.stale = false
			s.spill.Delete(id)
		}
		s.work.Broadcast()
	}
}

// spilledLocked reports whether id has a readable copy on the spill tier:
// one a Delete has overtaken while it was being written does not count.
func (s *TieredStore) spilledLocked(id uint64) bool {
	return s.spill != nil && !s.fencedLocked(id) && s.spill.Has(id)
}

// fencedLocked reports whether the write-back in flight is of id and stale.
func (s *TieredStore) fencedLocked(id uint64) bool { return s.stale && s.writingID == id }

// Flush blocks until every queued write-back has reached the spill tier.
func (s *TieredStore) Flush() {
	if s.spill == nil {
		return
	}
	s.mu.Lock()
	for len(s.queue) > 0 || s.writing > 0 {
		s.work.Wait()
	}
	s.mu.Unlock()
}

// Close drains the write-back queue and stops the writer. The store
// rejects puts afterwards.
func (s *TieredStore) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.work.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// List returns every template across both tiers, ascending by id.
func (s *TieredStore) List() []Info {
	s.mu.Lock()
	hostTier := "host"
	if s.spill != nil {
		hostTier = "host+disk"
	}
	out := make([]Info, 0, len(s.entries))
	seen := make(map[uint64]bool, len(s.entries))
	for id, e := range s.entries {
		out = append(out, Info{
			ID: id, Bytes: e.meta.bytes, DerivedBytes: e.derived, Tier: hostTier,
			Pinned: e.meta.pinned, Hits: e.meta.hits, LastUsed: e.lastUsed,
		})
		seen[id] = true
	}
	for id, tc := range s.pending {
		if seen[id] {
			continue
		}
		a := s.archived[id]
		out = append(out, Info{ID: id, Bytes: tc.SizeBytes(), Tier: "disk", Hits: a.hits, LastUsed: a.lastUsed})
		seen[id] = true
	}
	s.mu.Unlock()
	if s.spill != nil {
		for _, id := range s.spill.IDs() {
			if seen[id] {
				continue
			}
			s.mu.Lock()
			a, fenced := s.archived[id], s.fencedLocked(id)
			s.mu.Unlock()
			if fenced {
				continue
			}
			out = append(out, Info{ID: id, Bytes: s.spill.Bytes(id), Tier: "disk", Hits: a.hits, LastUsed: a.lastUsed})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns one row per configured tier: "host" always, "disk" when
// a spill dir is set.
func (s *TieredStore) Stats() []TierStats {
	s.mu.Lock()
	host := TierStats{
		Tier: "host", CapacityBytes: s.budget, UsedBytes: s.used,
		Entries: len(s.entries), Hits: s.hostHits, Misses: s.hostMisses,
		Evictions: s.evictions, Derivations: s.derivations,
	}
	for _, e := range s.entries {
		host.DerivedBytes += e.derived
		if e.meta.pinned {
			host.Pinned++
		}
	}
	diskHits, diskErrs := s.diskHits, s.diskErrors
	s.mu.Unlock()
	out := []TierStats{host}
	if s.spill != nil {
		d := s.spill.Dedup()
		out = append(out, TierStats{
			Tier: "disk", UsedBytes: d.PhysicalBytes, LogicalBytes: d.LogicalBytes,
			Entries: d.Templates, Hits: diskHits, Errors: diskErrs,
			Blocks: d.Blocks, SharedBlocks: d.SharedBlocks, DedupRatio: d.Ratio(),
		})
	}
	return out
}

// HasSpill reports whether the disk tier is configured.
func (s *TieredStore) HasSpill() bool { return s.spill != nil }

// DiskHits returns lookups served by promotion from the spill tier.
func (s *TieredStore) DiskHits() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskHits
}

// SpilledIDs returns the ids present on the spill tier (empty without one).
func (s *TieredStore) SpilledIDs() []uint64 {
	if s.spill == nil {
		return nil
	}
	return s.spill.IDs()
}

// Len returns the number of RAM-resident templates.
func (s *TieredStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// UsedBytes returns the RAM tier's occupancy: resident templates plus the
// derived K/V granted to them.
func (s *TieredStore) UsedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}
