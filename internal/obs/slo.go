package obs

import "sync"

// SLOClass is one deadline class: requests whose mask ratio is below
// MaxRatio (and not claimed by an earlier class) must complete within
// Deadline seconds to count as attained. Classing by mask ratio follows
// the paper's observation that editing cost — and therefore the latency a
// user will tolerate — scales with the edited region (Fig 3, §6.1): small
// interactive touch-ups expect fast turnaround, large regenerations are
// batch-like.
type SLOClass struct {
	Name     string
	MaxRatio float64 // exclusive upper bound on mask ratio
	Deadline float64 // seconds
}

// DefaultSLOClasses maps the Fig 3 mask-ratio regimes onto three deadline
// classes. The bounds straddle the production-trace mean (0.11) and the
// VITON mean (0.35), so mixed traces populate all three.
var DefaultSLOClasses = []SLOClass{
	{Name: "interactive", MaxRatio: 0.15, Deadline: 2.5},
	{Name: "standard", MaxRatio: 0.40, Deadline: 6},
	{Name: "relaxed", MaxRatio: 1.01, Deadline: 15},
}

// ClassFor returns the first class whose MaxRatio exceeds ratio, falling
// back to the last class. Deterministic in ratio, so the sim and real
// drivers class identically.
func ClassFor(classes []SLOClass, ratio float64) SLOClass {
	for _, c := range classes {
		if ratio < c.MaxRatio {
			return c
		}
	}
	return classes[len(classes)-1]
}

// SLOTracker classifies completed requests into deadline classes and
// tracks overall attainment; the plane counts each class's results in
// flashps_slo_requests_total. Goodput — attained requests per second — is
// derived by the Plane from Counts and its clock; the tracker itself is
// clock-free and therefore identical between sim and real runs.
type SLOTracker struct {
	classes  []SLOClass
	mu       sync.Mutex
	attained uint64
	total    uint64
}

// NewSLOTracker builds a tracker over the given classes (nil uses
// DefaultSLOClasses).
func NewSLOTracker(classes []SLOClass) *SLOTracker {
	if len(classes) == 0 {
		classes = DefaultSLOClasses
	}
	return &SLOTracker{classes: classes}
}

// Observe classifies one completed request by mask ratio and records
// whether its end-to-end latency met the class deadline, returning the
// class and the attainment verdict.
func (t *SLOTracker) Observe(ratio, latency float64) (SLOClass, bool) {
	c := ClassFor(t.classes, ratio)
	ok := latency <= c.Deadline
	t.mu.Lock()
	if ok {
		t.attained++
	}
	t.total++
	t.mu.Unlock()
	return c, ok
}

// Counts returns the overall attained and total request counts.
func (t *SLOTracker) Counts() (attained, total uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attained, t.total
}

// Attainment returns the overall attained fraction (1 when no requests
// have completed).
func (t *SLOTracker) Attainment() float64 {
	attained, total := t.Counts()
	if total == 0 {
		return 1
	}
	return float64(attained) / float64(total)
}
