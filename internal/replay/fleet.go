package replay

import (
	"flashps/internal/batching"
	"flashps/internal/cluster"
	"flashps/internal/fleet"
	"flashps/internal/workload"
)

// SimFleet replays the trace through the virtual-time fleet pipeline
// (admission → router → per-replica queues → autoscaler) on the
// discrete-event cost-model harness.
func SimFleet(cfg Config, fc fleet.Config, reqs []workload.Request) (*cluster.FleetResult, []batching.Decision, error) {
	return cluster.Drive(cfg.clusterConfig(), &fc, nil, reqs)
}

// RealFleet replays the trace through the same fleet pipeline on the
// real-engine driver: the identical fleet.Controller and batching
// Core/Runner code on a virtual clock, with an Executor that steps actual
// diffusion.EditSession replicas. Routing choices, scale events,
// decisions, and telemetry must replay byte-identically against SimFleet
// — the fleet extension of the differential contract.
func RealFleet(cfg Config, fc fleet.Config, reqs []workload.Request) (*RealResult, []batching.Decision, error) {
	return realDrive(cfg, &fc, reqs)
}
