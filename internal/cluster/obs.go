package cluster

import (
	"flashps/internal/cache"
	"flashps/internal/obs"
	"flashps/internal/perfmodel"
)

// newTierSet builds one cold-cache staging tier per worker (§4.2):
// hosting coldTemplates templates each, with LRU eviction and the
// profile's disk staging latency. Returns nil when coldTemplates <= 0
// (all caches warm).
func newTierSet(profile perfmodel.ModelProfile, workers, coldTemplates int) ([]cache.StagingTier, error) {
	if coldTemplates <= 0 {
		return nil, nil
	}
	tplBytes := int64(profile.TemplateCacheBytes())
	tiers := make([]cache.StagingTier, 0, workers)
	for i := 0; i < workers; i++ {
		tier, err := cache.NewTier(int64(coldTemplates)*tplBytes, tplBytes, profile.DiskLoadLatency())
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, tier)
	}
	return tiers, nil
}

// publishTierStats folds the tiers' end-of-run counters into the plane's
// per-tier cache accounting: host-tier hits and evictions, and disk-tier
// loads (every host miss stages one template from disk). Byte totals are
// ops × the tier's template footprint. Nil-safe in both arguments.
func publishTierStats(p *obs.Plane, tiers []cache.StagingTier) {
	if p == nil {
		return
	}
	for _, tier := range tiers {
		if tier == nil {
			continue
		}
		c := tier.Snapshot()
		b := float64(c.TemplateBytes)
		p.CacheTier("host", "hit", uint64(c.Hits), float64(c.Hits)*b)
		p.CacheTier("host", "evict", uint64(c.Evictions), float64(c.Evictions)*b)
		p.CacheTier("disk", "load", uint64(c.Misses), float64(c.Misses)*b)
	}
}
