package cluster

import "flashps/internal/fleet"

// FleetResult aggregates a fleet simulation run: the usual per-request
// stats plus the fleet control plane's event sequence and final replica
// states.
type FleetResult struct {
	Result
	// Rejected counts requests the admission stage turned away.
	Rejected int
	// Events is the fleet event sequence (routes, rejects, scale actions).
	Events []fleet.Event
	// States is each replica's final lifecycle state.
	States []fleet.State
}

// NormalizeFleet fills a fleet.Config's defaults from the simulation
// config so the virtual-time and real-engine drivers derive the identical
// controller: replica count from Workers, the affinity miss penalty from
// the fitted cache-load/spill law (falling back to the profile's disk
// staging latency), queue headroom from the engine batch limit, and the
// service-time estimate from the shared step-latency model.
func NormalizeFleet(cfg Config, fc fleet.Config) fleet.Config {
	if fc.Replicas <= 0 {
		fc.Replicas = cfg.Workers
	}
	if fc.MaxReplicas < fc.Replicas {
		fc.MaxReplicas = fc.Replicas
	}
	if fc.AffinityCapacity <= 0 {
		if cfg.ColdCacheTemplates > 0 {
			fc.AffinityCapacity = cfg.ColdCacheTemplates
		} else {
			fc.AffinityCapacity = 8
		}
	}
	if fc.QueueHeadroom <= 0 {
		fc.QueueHeadroom = cfg.maxBatch()
	}
	if fc.MissPenaltySeconds <= 0 {
		bytes := cfg.Profile.TemplateCacheBytes()
		if cfg.Costs != nil {
			fc.MissPenaltySeconds = cfg.Costs.LoadSeconds(bytes)
			if fc.MissPenaltySeconds <= 0 {
				fc.MissPenaltySeconds = cfg.Costs.SpillSeconds(bytes)
			}
		}
		if fc.MissPenaltySeconds <= 0 {
			fc.MissPenaltySeconds = cfg.Profile.DiskLoadLatency()
		}
	}
	if fc.ServiceSeconds <= 0 {
		fc.ServiceSeconds = StepLatency(cfg.System, cfg.Profile,
			[]ReqView{{MaskRatio: 0.2}}) * float64(cfg.Profile.Steps)
	}
	if fc.Metrics == nil && cfg.Obs != nil {
		fc.Metrics = cfg.Obs.Fleet()
	}
	return fc
}
