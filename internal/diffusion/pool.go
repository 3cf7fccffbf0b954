package diffusion

import "sync"

// SlabPool recycles the storage of derived forms read from the spill tier
// (ReadTemplateCacheWith). A derived form is the serving path's largest
// allocation, and fresh memory — zeroed, and faulted back in where the
// runtime has returned it to the kernel — is about half of what reading one
// costs; left to the collector it also doubles the heap's churn. A form read
// into the pool's storage holds it until its last hold ends
// (TemplateCache.Release), and the next read reuses it: every float of a
// reused slab is overwritten, or the read fails. The pool keeps at most max
// bytes of free storage.
type SlabPool struct {
	mu    sync.Mutex
	free  map[int][][]float32 // by length
	bytes int64
	max   int64
	// gets counts the slabs handed out, fresh those of them allocated.
	gets, fresh int64
}

// NewSlabPool returns a pool keeping at most max bytes of free storage.
func NewSlabPool(max int64) *SlabPool {
	return &SlabPool{free: make(map[int][][]float32), max: max}
}

// get returns a slab of n floats, reused when the pool has one; a nil pool
// allocates.
func (p *SlabPool) get(n int) []float32 {
	if p == nil {
		return make([]float32, n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gets++
	l := p.free[n]
	if len(l) == 0 {
		p.fresh++
		return make([]float32, n)
	}
	s := l[len(l)-1]
	l[len(l)-1] = nil
	p.free[n] = l[:len(l)-1]
	p.bytes -= 4 * int64(n)
	return s
}

// Counts returns how many slabs the pool has handed out and how many of
// them it had to allocate.
func (p *SlabPool) Counts() (gets, fresh int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.fresh
}

// put takes slabs back, as many as fit within the pool's bound.
func (p *SlabPool) put(slabs [][]float32) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range slabs {
		if b := 4 * int64(len(s)); p.bytes+b <= p.max {
			p.free[len(s)] = append(p.free[len(s)], s)
			p.bytes += b
		}
	}
}

// Hold marks a derived form read into a SlabPool's storage as read by one
// more holder until the matching Release. Such a form starts with one hold,
// its reader's, and gives its storage back to the pool when the last one
// ends; from then on nothing may read it. A session holds its template from
// BeginEdit to the end of its last step. On any other template holds count
// nothing.
func (tc *TemplateCache) Hold() {
	if tc.pool != nil {
		tc.holds.Add(1)
	}
}

// Release ends a hold (Hold).
func (tc *TemplateCache) Release() {
	if tc.pool == nil {
		return
	}
	switch n := tc.holds.Add(-1); {
	case n == 0:
		tc.pool.put(tc.slabs)
	case n < 0:
		panic("diffusion: a template released more often than held")
	}
}
