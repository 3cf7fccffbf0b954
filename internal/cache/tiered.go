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
	ID uint64
	// Bytes is the template's RAM bytes besides DerivedBytes: its Y cache,
	// or a derived form's latent trajectory.
	Bytes int64
	// DerivedBytes is the derived K/V a RAM-resident template holds,
	// charged to the RAM budget beside Bytes.
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
	// converting: the gate granted tc's conversion to its derived form and
	// the derivation has not landed (converted). The entry holds its Y
	// meanwhile and is charged the larger of the Y and the form: meta.bytes
	// the Y, derived what the form has beyond it.
	converting bool
}

// formed reports whether the entry is, or is becoming, a derived form, whose
// derived K/V goes only with it: it is never stripped.
func (e *ramEntry) formed() bool { return e.converting || e.tc.IsDerivedForm() }

// inflight is a spill-tier read in progress; a delete or put of its id
// marks it stale, and the reader then promotes nothing.
type inflight struct {
	done  chan struct{}
	stale bool
}

// spillOp is one entry of the write-back queue: save pending[k] to the
// spill tier, or remove k's object from it.
type spillOp struct {
	k      spillKey
	remove bool
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
// (diffusion.TemplateCache.SetDeriveGate). The store grants a derivation
// when its bytes fit beside everything resident, and derived state —
// rebuilt in a couple of milliseconds — is what the tier gives up first:
// an admission or promotion that needs room strips it from the coldest
// templates before any template is demoted. When they do not fit and the
// spill tier holds (or has pending) the template's Y, the template becomes
// its derived form instead (diffusion.TemplateCache.DerivedForm), for an
// edit that does not read Y: the gate makes room for the derived K/V and
// trajectory, demoting colder templates, and the Y the entry gives up stays
// on disk. A derived form is
// demoted whole; its one-time write-back is the template's second spill
// object, which promotions load from then on. An edit that reads Y
// (diffusion.Engine.ReadsY) takes it from the spill tier for the one
// request (GetY).
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
	pending  map[spillKey]*diffusion.TemplateCache
	queue    []spillOp
	// removals counts the queued or running removals of each object: one
	// with any is fenced from every reader, whatever lands before it.
	removals map[spillKey]int
	loading  map[uint64]*inflight // singleflight disk promotions
	seq      uint64
	used     int64 // resident templates plus their derived K/V
	// busy: the write-back goroutine is carrying out an operation on
	// doing with s.mu released — saving the object saving, or removing it
	// when saving is nil.
	busy   bool
	doing  spillKey
	saving *diffusion.TemplateCache
	closed bool

	hostHits, hostMisses, evictions int64
	derivations, conversions        int64
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
		pending:  make(map[spillKey]*diffusion.TemplateCache),
		removals: make(map[spillKey]int),
		loading:  make(map[uint64]*inflight),
	}
	s.work = sync.NewCond(&s.mu)
	if cfg.SpillDir != "" {
		sp, err := NewBlockStore(cfg.SpillDir, cfg.BlockBytes)
		if err != nil {
			return nil, err
		}
		// Room to recycle what the tier turns over. Storage comes back in
		// bursts, when sessions that held demoted forms end together; at
		// half the budget the pool threw away storage that the next
		// promotions allocated again (TestDerivedPromotionsRecycleStorage).
		sp.pool = diffusion.NewSlabPool(cfg.RAMBudget)
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
// asynchronously (Flush waits for it). A derived form of an earlier
// template under the id is gone from every tier when it returns.
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
	s.supersedeLocked(id)
	s.gateLocked(id, tc)
	if e, ok := s.entries[id]; ok {
		s.stripLocked(e)
		s.used += b - e.meta.bytes - e.derived
		e.tc.Release()
		e.tc, e.derived, e.converting = tc, 0, false
		e.meta.bytes = b
		if recomputeSeconds > 0 {
			e.meta.cost = recomputeSeconds
		}
		s.seq++
		e.meta.seq = s.seq
		e.lastUsed = time.Now()
		s.enqueueLocked(spillKey{id: id}, tc)
		evs2, err := s.evictOverLocked(id)
		s.mu.Unlock()
		s.emit(append(evs, evs2...))
		return err
	}
	if b > s.budget {
		// Larger than the whole RAM tier: spill-only residency.
		s.archived[id] = archMeta{cost: recomputeSeconds, lastUsed: time.Now()}
		s.enqueueLocked(spillKey{id: id}, tc)
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
	s.enqueueLocked(spillKey{id: id}, tc)
	evs2, err := s.evictOverLocked(id)
	s.mu.Unlock()
	s.emit(append(evs, evs2...))
	return err
}

// supersedeLocked makes what the spill tier holds of id's derived form
// unservable for good, for a put or delete of id: a pending write-back is
// dropped, and a copy on disk or in flight is fenced and queued for removal
// (unspillLocked); a promotion of id in flight promotes nothing. It reports
// whether the spill tier had the form on disk.
func (s *TieredStore) supersedeLocked(id uint64) bool {
	if l, ok := s.loading[id]; ok {
		l.stale = true
	}
	k := spillKey{id, true}
	if tc, ok := s.pending[k]; ok {
		delete(s.pending, k)
		if tc != s.saving {
			tc.Release() // the write-back's; one in flight keeps it until it lands
		}
	}
	return s.unspillLocked(k)
}

// unspillLocked fences k's spill object from every reader at once and
// queues its removal behind the write-backs queued before it, a save of k
// in flight included, so that the removal takes whatever has landed by
// then; the files go with the store's lock released. It reports whether the
// spill tier had a readable copy.
func (s *TieredStore) unspillLocked(k spillKey) bool {
	onDisk := s.spilledLocked(k)
	if onDisk || s.saving != nil && s.doing == k {
		s.removals[k]++
		s.queue = append(s.queue, spillOp{k: k, remove: true})
		s.work.Broadcast()
	}
	return onDisk
}

// Get returns the template or nil, promoting from the spill tier on a
// RAM miss.
func (s *TieredStore) Get(id uint64) *diffusion.TemplateCache {
	tc, _ := s.GetTracked(id)
	return tc
}

// GetTracked is Get plus provenance: which tier served the lookup and,
// for promotions, the measured disk-read time. A promotion loads the
// template's derived form when the spill tier has one, its Y otherwise. The
// caller holds the template it is given (diffusion.TemplateCache.Hold): a
// derived form read from disk keeps its storage until the caller releases
// it, and is recycled once every holder has — the tier's own entry and
// every edit begun on it included.
func (s *TieredStore) GetTracked(id uint64) (*diffusion.TemplateCache, GetResult) {
	s.mu.Lock()
	var evs []obsEvent
	missed := false
	for {
		if e, ok := s.entries[id]; ok {
			s.seq++
			e.meta.seq = s.seq
			e.meta.hits++
			e.lastUsed = time.Now()
			tc := e.tc
			tc.Hold()
			b := e.meta.bytes
			if tc.IsDerivedForm() {
				b += e.derived
			}
			if !missed {
				s.hostHits++
				evs = append(evs, obsEvent{"host", "hit", 1, float64(b)})
			}
			s.mu.Unlock()
			s.emit(evs)
			return tc, GetResult{Tier: "host", Bytes: b}
		}
		if l, ok := s.loading[id]; ok {
			// Another goroutine is promoting this id; wait and re-check.
			s.mu.Unlock()
			<-l.done
			s.mu.Lock()
			continue
		}
		if !missed {
			missed = true
			s.hostMisses++
			evs = append(evs, obsEvent{"host", "miss", 1, 0})
		}
		tc, res, evs2, retry := s.stageLocked(id, true)
		evs = append(evs, evs2...)
		if retry {
			continue
		}
		s.mu.Unlock()
		s.emit(evs)
		if res.LoadSeconds > 0 && s.transfer != nil {
			s.transfer("load", res.Bytes, res.LoadSeconds)
		}
		return tc, res
	}
}

// stageLocked promotes id from the spill tier: its derived form, else its
// Y, from the write-back buffer without IO or read from disk with s.mu
// released meanwhile. A derived form that fails to read counts as a disk
// error and is removed; the Y is read in its place. hit counts the lookup
// (GetTracked; a prefetch does not). It returns nil when neither object
// exists or the read failed, and retry when a put or delete of id overtook
// the read.
func (s *TieredStore) stageLocked(id uint64, hit bool) (*diffusion.TemplateCache, GetResult, []obsEvent, bool) {
	var evs []obsEvent
	for _, k := range [...]spillKey{{id, true}, {id: id}} {
		if tc, ok := s.pending[k]; ok {
			// Still in the write-back buffer: promote without disk IO.
			b := tc.SizeBytes()
			if hit {
				tc.Hold()
				s.diskHits++
				evs = append(evs, obsEvent{"disk", "load", 1, float64(b)})
			}
			evs = append(evs, s.promoteLocked(id, tc, hit)...)
			return tc, GetResult{Tier: "disk", Promoted: true, Bytes: b}, evs, false
		}
	}
	k := spillKey{id, true}
	if !s.spilledLocked(k) {
		k.derived = false
		if !s.spilledLocked(k) {
			return nil, GetResult{}, nil, false
		}
	}
	l := &inflight{done: make(chan struct{})}
	s.loading[id] = l
	s.mu.Unlock()

	start := time.Now()
	tc, err := s.spill.load(k)
	unreadable := err != nil && k.derived
	if unreadable {
		tc, err = s.spill.Load(id)
	}
	secs := time.Since(start).Seconds()

	s.mu.Lock()
	delete(s.loading, id)
	close(l.done)
	if l.stale {
		if err == nil {
			tc.Release()
		}
		return nil, GetResult{}, nil, true
	}
	if unreadable {
		// A derived form this binary cannot read (damaged, or of a format
		// it no longer takes) would fail every later promotion first: it
		// goes, as a delete's would, and the template converts afresh.
		s.diskErrors++
		s.unspillLocked(spillKey{id, true})
	}
	if err != nil {
		s.diskErrors++
		return nil, GetResult{}, nil, false
	}
	if hit {
		tc.Hold()
		s.diskHits++
	}
	b := tc.SizeBytes()
	evs = append([]obsEvent{{"disk", "load", 1, float64(b)}}, s.promoteLocked(id, tc, hit)...)
	tc.Release() // the read's
	return tc, GetResult{Tier: "disk", Promoted: true, Bytes: b, LoadSeconds: secs}, evs, false
}

// GetY returns template id's Y form for an edit that reads Y
// (diffusion.Engine.ReadsY) while the store holds its derived form: the
// resident entry when that is the Y form, the write-back buffer's copy, or
// a copy read from the spill tier for this call alone — not promoted,
// charged to no budget, deriving nothing. ErrNotFound when no tier has it.
func (s *TieredStore) GetY(id uint64) (*diffusion.TemplateCache, error) {
	s.mu.Lock()
	if e, ok := s.entries[id]; ok && !e.tc.IsDerivedForm() {
		s.mu.Unlock()
		return e.tc, nil
	}
	k := spillKey{id: id}
	if tc, ok := s.pending[k]; ok {
		s.mu.Unlock()
		return tc, nil
	}
	if !s.spilledLocked(k) {
		s.mu.Unlock()
		return nil, fmt.Errorf("cache: Y of template %d: %w", id, ErrNotFound)
	}
	s.mu.Unlock()
	start := time.Now()
	tc, err := s.spill.Load(id)
	secs := time.Since(start).Seconds()
	s.mu.Lock()
	if err != nil {
		s.diskErrors++
		s.mu.Unlock()
		return nil, err
	}
	s.gateLocked(id, tc) // not the resident copy: grants nothing
	s.mu.Unlock()
	b := tc.SizeBytes()
	s.emit([]obsEvent{{"disk", "load", 1, float64(b)}})
	if s.transfer != nil {
		s.transfer("load", b, secs)
	}
	return tc, nil
}

// promoteLocked inserts a template loaded from the spill tier into RAM,
// holding it for the entry and restoring any archived policy metadata. hit
// stamps a use on the entry.
func (s *TieredStore) promoteLocked(id uint64, tc *diffusion.TemplateCache, hit bool) []obsEvent {
	b := tc.SizeBytes()
	s.gateLocked(id, tc)
	if b > s.budget {
		return nil // can never be resident; callers serve the loaded copy
	}
	s.seq++
	tc.Hold()
	e := &ramEntry{tc: tc, lastUsed: time.Now()}
	e.meta = entryMeta{id: id, bytes: b, seq: s.seq}
	if tc.IsDerivedForm() {
		e.derived = tc.DerivedBytes()
		e.meta.bytes -= e.derived
	}
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
// so a copy too large for the tier, read for one edit, demoted or deleted
// derives nothing.
func (s *TieredStore) gateLocked(id uint64, tc *diffusion.TemplateCache) {
	tc.SetDeriveGate(func(bytes int64, form bool) bool { return s.grantDerived(id, tc, bytes, form) },
		func() { s.converted(id, tc) })
}

// grantDerived charges bytes of derived K/V to the RAM budget if tc is
// resident and they fit beside it. Derived state never displaces anything
// beside a template's Y, so a tier sized in whole templates without a
// spill tier behaves as if it did not exist. When the bytes do not fit and
// the edit asking would run on the template's derived form (form), the
// template may become that form instead (convertLocked); an edit that reads
// Y is refused, and computes its K/V.
func (s *TieredStore) grantDerived(id uint64, tc *diffusion.TemplateCache, bytes int64, form bool) bool {
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok || e.tc != tc {
		s.mu.Unlock()
		return false
	}
	if s.used-e.derived+bytes <= s.budget {
		s.used += bytes - e.derived
		e.derived = bytes
		s.derivations++
		s.mu.Unlock()
		return true
	}
	if !form {
		s.mu.Unlock()
		return false
	}
	evs, ok := s.convertLocked(e, bytes)
	s.mu.Unlock()
	s.emit(evs)
	return ok
}

// convertLocked grants e's template a derivation of bytes of K/V that turns
// it into its derived form — the K/V and the latent trajectory in place of
// the Y cache — when the spill tier holds, or has pending, the Y it gives
// up. The entry is charged the larger of its Y, which it holds until the
// derivation lands, and the form, which it holds from then on (converted);
// it makes room as evictOverLocked does, demoting colder templates and never
// a pinned one, and when even the pinned templates leave no room it refuses
// and touches nothing.
func (s *TieredStore) convertLocked(e *ramEntry, bytes int64) ([]obsEvent, bool) {
	id := e.meta.id
	y := spillKey{id: id}
	if _, ok := s.pending[y]; !ok && !s.spilledLocked(y) {
		return nil, false
	}
	extra := max(0, e.tc.TrajectoryBytes()+bytes-e.meta.bytes) // the form beyond the Y
	floor := e.meta.bytes + extra                              // what must stay resident, with every pinned template
	for oid, o := range s.entries {
		if oid != id && o.meta.pinned {
			floor += o.meta.bytes
			if o.formed() {
				floor += o.derived
			}
		}
	}
	if floor > s.budget {
		return nil, false
	}
	s.stripLocked(e)
	s.used += extra
	e.derived, e.converting = extra, true
	s.derivations++
	s.conversions++
	evs, _ := s.evictOverLocked(id)
	return evs, true
}

// converted swaps a converting entry's template for its derived form once
// the derivation the gate granted has landed, and charges the form alone;
// the Y stays with the sessions that hold it.
func (s *TieredStore) converted(id uint64, tc *diffusion.TemplateCache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok && e.tc == tc && e.converting {
		if form := tc.DerivedForm(); form != nil {
			traj, kv := form.TrajectoryBytes(), form.DerivedBytes()
			s.used += traj + kv - e.meta.bytes - e.derived
			e.tc, e.meta.bytes, e.derived, e.converting = form, traj, kv, false
		}
	}
}

// stripLocked takes an entry's derived K/V back, granted or already built,
// unless the entry is a derived form, whose K/V goes only with it. An entry
// still converting is being demoted, deleted or replaced: its derivation
// will land on nothing, and its charge goes with the entry.
func (s *TieredStore) stripLocked(e *ramEntry) {
	switch {
	case e.converting:
		e.tc.DropDerived()
	case e.derived > 0 && !e.tc.IsDerivedForm():
		s.used -= e.derived
		e.derived = 0
		e.tc.DropDerived()
	}
}

// coldestDerivedLocked returns the entry the policy would evict first among
// those holding derived K/V beside their Y, pinned or not (a pin protects
// the template, which stripping leaves resident), or nil when none does.
func (s *TieredStore) coldestDerivedLocked() *ramEntry {
	var cands []*entryMeta
	for _, e := range s.entries {
		if e.derived > 0 && !e.formed() {
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
// put time) is the surviving replica; a derived form the spill tier does
// not have yet is queued for its one write-back.
func (s *TieredStore) demoteLocked(id uint64) []obsEvent {
	e, ok := s.entries[id]
	if !ok {
		return nil
	}
	s.stripLocked(e)
	delete(s.entries, id)
	b := e.meta.bytes + e.derived
	s.used -= b
	s.evictions++
	s.archived[id] = archMeta{cost: e.meta.cost, ratio: e.meta.ratio, hits: e.meta.hits, lastUsed: e.lastUsed}
	if k := (spillKey{id, true}); e.tc.IsDerivedForm() && s.pending[k] == nil && !s.spilledLocked(k) {
		e.tc.Hold() // the write-back's
		s.enqueueLocked(k, e.tc)
	}
	e.tc.Release()
	return []obsEvent{{"host", "evict", 1, float64(b)}}
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
	tc.Release()
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
	if _, ok := s.pending[spillKey{id: id}]; ok {
		return nil
	}
	if s.spilledLocked(spillKey{id: id}) || s.spilledLocked(spillKey{id, true}) {
		return nil
	}
	return fmt.Errorf("cache: unpin %d: %w", id, ErrNotFound)
}

// Delete removes a template from every tier, both of its spill objects
// included. Pinned templates refuse with ErrPinned; unknown ids return
// ErrNotFound. Nothing of the template is servable when it returns; its
// spill files are removed by the write-back goroutine, after any write-back
// of the template already in flight has landed (Flush waits for both).
func (s *TieredStore) Delete(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, resident := s.entries[id]
	if resident && e.meta.pinned {
		return fmt.Errorf("cache: delete %d: %w", id, ErrPinned)
	}
	_, wasPending := s.pending[spillKey{id: id}]
	_, formPending := s.pending[spillKey{id, true}]
	wasPending = wasPending || formPending
	delete(s.pending, spillKey{id: id})
	if resident {
		s.stripLocked(e)
		delete(s.entries, id)
		s.used -= e.meta.bytes + e.derived
		e.tc.Release()
	}
	_, wasArchived := s.archived[id]
	delete(s.archived, id)
	// The derived form first: a Y whose removal has not run yet then never
	// stands without it on disk. A copy an earlier Delete already fenced is
	// nothing this call found.
	onDisk := s.supersedeLocked(id)
	onDisk = s.unspillLocked(spillKey{id: id}) || onDisk
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
	_, resident := s.entries[id]
	_, loading := s.loading[id]
	if resident || loading {
		s.mu.Unlock()
		return false
	}
	_, res, evs, _ := s.stageLocked(id, false)
	s.mu.Unlock()
	s.emit(evs)
	if res.LoadSeconds > 0 && s.transfer != nil {
		s.transfer("load", res.Bytes, res.LoadSeconds)
	}
	return false
}

// enqueueLocked schedules an asynchronous write-back of one object to the
// spill tier.
func (s *TieredStore) enqueueLocked(k spillKey, tc *diffusion.TemplateCache) {
	if s.spill == nil {
		return
	}
	s.pending[k] = tc
	s.queue = append(s.queue, spillOp{k: k})
	s.work.Broadcast()
}

// writer is the single write-back goroutine: it drains the spill queue in
// order, persisting each pending object and removing the objects deletes
// and puts have fenced.
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
		op := s.queue[0]
		s.queue = s.queue[1:]
		k := op.k
		if op.remove {
			s.busy, s.doing = true, k
			s.mu.Unlock()
			s.spill.deleteKey(k)
			s.mu.Lock()
			s.busy = false
			if s.removals[k]--; s.removals[k] == 0 {
				delete(s.removals, k)
			}
			s.work.Broadcast()
			continue
		}
		tc, ok := s.pending[k]
		if !ok {
			// Deleted or already written; a Flush may be waiting on the
			// queue this just emptied.
			s.work.Broadcast()
			continue
		}
		s.busy, s.doing, s.saving = true, k, tc
		s.mu.Unlock()

		start := time.Now()
		err := s.spill.Save(k.id, tc)
		secs := time.Since(start).Seconds()
		b := tc.SizeBytes()
		if err == nil {
			s.emit([]obsEvent{{"disk", "store", 1, float64(b)}})
			if s.transfer != nil {
				s.transfer("store", b, secs)
			}
		}

		s.mu.Lock()
		s.busy, s.saving = false, nil
		if err != nil {
			s.diskErrors++
		}
		if s.pending[k] == tc {
			delete(s.pending, k)
		}
		if k.derived {
			tc.Release() // the write-back's, also when a put or delete dropped it meanwhile
		}
		s.work.Broadcast()
	}
}

// spilledLocked reports whether the spill tier has a readable copy of the
// object: one a Delete or put has fenced for removal does not count.
func (s *TieredStore) spilledLocked(k spillKey) bool {
	return s.spill != nil && s.removals[k] == 0 && s.spill.has(k)
}

// Flush blocks until every queued write-back and removal has reached the
// spill tier.
func (s *TieredStore) Flush() {
	if s.spill == nil {
		return
	}
	s.mu.Lock()
	for len(s.queue) > 0 || s.busy {
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
	for k, tc := range s.pending {
		if seen[k.id] || k.derived {
			continue
		}
		a := s.archived[k.id]
		out = append(out, Info{ID: k.id, Bytes: tc.SizeBytes(), Tier: "disk", Hits: a.hits, LastUsed: a.lastUsed})
		seen[k.id] = true
	}
	s.mu.Unlock()
	if s.spill != nil {
		for _, id := range s.spill.IDs() {
			if seen[id] {
				continue
			}
			s.mu.Lock()
			a, fenced := s.archived[id], s.removals[spillKey{id: id}] > 0
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
