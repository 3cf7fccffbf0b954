package fleet

import (
	"flashps/internal/batching"
	"flashps/internal/workload"
)

// Front returns the controller as the batching.Runner's fleet seam. Every
// driver, virtual-time or wall-clock, hands its Runner this one front, so
// an arrival always runs admission → routing → per-replica queue in the
// same code and in the same order.
func (c *Controller) Front() batching.Fleet { return front{c} }

type front struct{ c *Controller }

func request(req workload.Request) Request {
	return Request{ID: uint64(req.ID), Template: req.Template, MaskRatio: req.MaskRatio}
}

// Admit implements batching.Fleet.
func (f front) Admit(req workload.Request, deadline, now float64) (bool, string) {
	fr := request(req)
	fr.DeadlineSeconds = deadline
	return f.c.Admit(fr, now)
}

// Place implements batching.Fleet. Under a fleet router the controller
// picks among the Active live replicas and the pick is recorded in the
// core's decision log as a fixed placement; under RouterCore the core's
// policy places across the same replicas and the controller only tracks
// the template for affinity.
func (f front) Place(core *batching.Core, req workload.Request, item batching.Item,
	views []batching.WorkerView, alive []bool) (int, bool) {
	c := f.c
	if c.cfg.Router == RouterCore {
		var ids []int
		var cands []batching.WorkerView
		for i, v := range views {
			if alive[i] && c.Routable(i) {
				ids, cands = append(ids, i), append(cands, v)
			}
		}
		if len(ids) == 0 {
			return 0, false
		}
		dest := core.Place(cands, ids, item)
		c.NoteRoute(dest, req.Template)
		return dest, true
	}
	depths := make([]int, len(views))
	for i, v := range views {
		depths[i] = len(v.Ratios)
	}
	dest, _, err := c.Route(request(req), depths, alive)
	if err != nil {
		return 0, false
	}
	core.PlaceFixed(item, dest, c.ActiveCount())
	return dest, true
}

// Completed implements batching.Fleet: completions feed the autoscaler's
// attainment window.
func (f front) Completed(stat batching.RequestStat) {
	f.c.ObserveCompletion(stat.MaskRatio, stat.Latency())
}

// Autoscale chains the controller's tick on a virtual-time driver's clock,
// one event per interval, until every arrival has fired (lastArrival),
// every request has drained and the autoscaler has settled; then the clock
// runs dry and the driver's drain terminates.
func Autoscale(ctrl *Controller, runner *batching.Runner, clock batching.Clock, lastArrival float64) {
	if !ctrl.AutoscaleEnabled() {
		return
	}
	interval := ctrl.TickInterval()
	var tick func()
	tick = func() {
		now := clock.Now()
		ctrl.Tick(now, runner.OutstandingCounts())
		if now >= lastArrival && runner.Pending() == 0 && ctrl.Settled() {
			return
		}
		clock.After(interval, tick)
	}
	clock.After(interval, tick)
}
