package fleet

import (
	"testing"

	"flashps/internal/batching"
	"flashps/internal/tensor"
	"flashps/internal/workload"
)

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return c
}

// routeSeq routes a fixed request sequence and returns the replica
// choices. Queue depths evolve as a toy model: each routed request adds
// one to its replica, and every fourth route drains everything (enough to
// exercise both the headroom and the fallback paths).
func routeSeq(t *testing.T, c *Controller, ids []uint64, tpls []uint64, ratios []float64) []int {
	t.Helper()
	depths := make([]int, c.Pool())
	out := make([]int, len(ids))
	for i := range ids {
		dest, _, err := c.Route(Request{ID: ids[i], Template: tpls[i], MaskRatio: ratios[i]}, depths, nil)
		if err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
		out[i] = dest
		depths[dest]++
		if i%4 == 3 {
			for j := range depths {
				depths[j] = 0
			}
		}
	}
	return out
}

// TestRoutingInvariantUnderIDRelabeling mirrors the batching core's
// TestPlacementInvariantUnderIDRelabeling: relabeling request IDs (an
// accident of arrival numbering) must not change any routing choice,
// because the router never consults the ID.
func TestRoutingInvariantUnderIDRelabeling(t *testing.T) {
	const n = 200
	rng := tensor.NewRNG(99)
	tpls := make([]uint64, n)
	ratios := make([]float64, n)
	for i := range tpls {
		tpls[i] = uint64(rng.Intn(6) + 1)
		ratios[i] = rng.Float64()
	}
	ids := make([]uint64, n)
	relabeled := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
		relabeled[i] = uint64(1000000-i) * 7
	}
	for _, router := range []RouterKind{RouterLeastLoaded, RouterAffinity} {
		cfg := Config{Replicas: 4, Router: router,
			MissPenaltySeconds: 0.5, ServiceSeconds: 0.1}
		a := routeSeq(t, newTestController(t, cfg), ids, tpls, ratios)
		b := routeSeq(t, newTestController(t, cfg), relabeled, tpls, ratios)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: route %d diverges under ID relabeling: %d vs %d",
					router, i, a[i], b[i])
			}
		}
	}
}

// TestAffinityPrefersHolderWithHeadroom is the template-affinity
// contract: when some replica holds the request's template and has queue
// headroom, the router must never pick a non-holder.
func TestAffinityPrefersHolderWithHeadroom(t *testing.T) {
	c := newTestController(t, Config{Replicas: 4, Router: RouterAffinity,
		QueueHeadroom: 4, MissPenaltySeconds: 0.5, ServiceSeconds: 0.1})
	rng := tensor.NewRNG(7)
	holders := map[uint64]map[int]bool{}
	for i := 0; i < 500; i++ {
		tpl := uint64(rng.Intn(5) + 1)
		depths := make([]int, 4)
		for j := range depths {
			depths[j] = rng.Intn(8)
		}
		dest, hit, err := c.Route(Request{ID: uint64(i + 1), Template: tpl,
			MaskRatio: rng.Float64()}, depths, nil)
		if err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
		hadRoom := false
		for id := range holders[tpl] {
			if depths[id] < 4 {
				hadRoom = true
			}
		}
		if hadRoom && !holders[tpl][dest] {
			t.Fatalf("route %d: template %d has a holder with headroom (depths %v, holders %v) but went to non-holder %d",
				i, tpl, depths, holders[tpl], dest)
		}
		if hit != holders[tpl][dest] {
			t.Fatalf("route %d: hit=%v but holder set says %v", i, hit, holders[tpl][dest])
		}
		if holders[tpl] == nil {
			holders[tpl] = map[int]bool{}
		}
		holders[tpl][dest] = true
	}
}

// TestAffinityEviction pins the affinity LRU bound: once a replica has
// tracked more templates than its capacity, the oldest falls out and a
// subsequent route of it is a miss.
func TestAffinityEviction(t *testing.T) {
	c := newTestController(t, Config{Replicas: 1, Router: RouterAffinity,
		AffinityCapacity: 2, QueueHeadroom: 4})
	depths := []int{0}
	for i, tpl := range []uint64{1, 2, 3} {
		if _, hit, _ := c.Route(Request{ID: uint64(i + 1), Template: tpl}, depths, nil); hit {
			t.Fatalf("template %d: unexpected hit on first touch", tpl)
		}
	}
	// 1 was evicted by 3 (capacity 2 holds {2,3}).
	if _, hit, _ := c.Route(Request{ID: 10, Template: 1}, depths, nil); hit {
		t.Fatal("template 1 should have been evicted")
	}
	if _, hit, _ := c.Route(Request{ID: 11, Template: 3}, depths, nil); !hit {
		t.Fatal("template 3 should still be tracked")
	}
}

// TestAdmissionFeasibilityBeforeTokens pins the admission ordering: an
// infeasible request is rejected without consuming a token, and the token
// bucket refills from explicit clock time.
func TestAdmissionFeasibilityBeforeTokens(t *testing.T) {
	c := newTestController(t, Config{Replicas: 1,
		TokenRate: 1, TokenBurst: 1, MinServiceSeconds: 3})
	// DeadlineSeconds below the service floor: infeasible.
	if ok, reason := c.Admit(Request{ID: 1, DeadlineSeconds: 1}, 0); ok || reason != "deadline_infeasible" {
		t.Fatalf("want deadline_infeasible, got ok=%v reason=%q", ok, reason)
	}
	// The token survived the infeasible reject.
	if ok, _ := c.Admit(Request{ID: 2, DeadlineSeconds: 10}, 0); !ok {
		t.Fatal("feasible request should consume the surviving token")
	}
	if ok, reason := c.Admit(Request{ID: 3, DeadlineSeconds: 10}, 0); ok || reason != "rate_limited" {
		t.Fatalf("want rate_limited, got ok=%v reason=%q", ok, reason)
	}
	// 2 clock seconds refill 2 tokens, capped at burst 1.
	if ok, _ := c.Admit(Request{ID: 4, DeadlineSeconds: 10}, 2); !ok {
		t.Fatal("bucket should have refilled")
	}
	events := c.Events()
	var rejects int
	for _, e := range events {
		if e.Kind == EventReject {
			rejects++
		}
	}
	if rejects != 2 {
		t.Fatalf("want 2 reject events, got %d (%v)", rejects, events)
	}
}

// TestDrainingReceivesNoTraffic pins the lifecycle contract: a draining
// replica is invisible to the router and transitions to Down once empty.
func TestDrainingReceivesNoTraffic(t *testing.T) {
	c := newTestController(t, Config{Replicas: 2, Router: RouterLeastLoaded})
	c.mu.Lock()
	c.replicas[1].state = Draining
	c.mu.Unlock()
	for i := 0; i < 10; i++ {
		dest, _, err := c.Route(Request{ID: uint64(i + 1), Template: 1}, []int{5, 0}, nil)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		if dest == 1 {
			t.Fatal("routed to a draining replica")
		}
	}
	c.Tick(0, []int{5, 0})
	if got := c.States()[1]; got != Down {
		t.Fatalf("empty draining replica should be Down, got %v", got)
	}
}

// TestCorePlacementSkipsIneligibleReplicas: under RouterCore the core's
// policy sees only the live Active replicas, the decision names the
// replica's own ID, and no eligible replica means no placement and no
// decision.
func TestCorePlacementSkipsIneligibleReplicas(t *testing.T) {
	c := newTestController(t, Config{Replicas: 3, MaxReplicas: 4})
	core := batching.NewCore(batching.CoreConfig{Policy: batching.LeastRequests})
	views := []batching.WorkerView{{}, {Ratios: []float64{0.2}, RemSteps: []int{5}},
		{Ratios: []float64{0.1, 0.1}, RemSteps: []int{5, 5}}, {}}
	place := func(id int, alive []bool) (int, bool) {
		return c.Front().Place(core, workload.Request{ID: id, Template: 7},
			batching.Item{ID: uint64(id), MaskRatio: 0.1}, views, alive)
	}
	// Replica 0 is dead and replica 3 is Down: 1 is the emptiest left.
	if got, ok := place(1, []bool{false, true, true, true}); !ok || got != 1 {
		t.Fatalf("placed on %d ok=%v, want the emptiest eligible replica 1", got, ok)
	}
	if _, ok := place(2, []bool{false, false, false, true}); ok {
		t.Fatal("placed with no eligible replica")
	}
	dec := core.Decisions()
	if len(dec) != 1 || dec[0].Worker != 1 || dec[0].Batch != 2 {
		t.Fatalf("decisions = %v, want one placement on replica 1 among 2 candidates", dec)
	}
}

// TestAutoscalerHysteresis drives the controller's scale loop directly:
// consecutive SLO-breach windows trigger one scale-up (not one per tick),
// consecutive idle windows drain back to the floor, and the cooldown
// separates actions.
func TestAutoscalerHysteresis(t *testing.T) {
	c := newTestController(t, Config{Replicas: 1, MaxReplicas: 3,
		Router: RouterLeastLoaded,
		Autoscale: AutoscaleConfig{Enabled: true, Interval: 1,
			AttainBelow: 0.9, UpTicks: 2, IdleTicks: 2, Cooldown: 1, Min: 1}})
	depths := []int{0, 0, 0}
	now := 0.0
	tick := func() []Event {
		now++
		return c.Tick(now, depths)
	}
	// Breach windows: every completion misses its deadline.
	breach := func() { c.ObserveCompletion(0.1, 100) }

	breach()
	if ev := tick(); len(ev) != 0 {
		t.Fatalf("first breach tick must not scale (hysteresis), got %v", ev)
	}
	breach()
	ev := tick()
	if len(ev) != 1 || ev[0].Kind != EventScaleUp || ev[0].Replica != 1 {
		t.Fatalf("second breach tick should activate replica 1, got %v", ev)
	}
	if got := c.ActiveCount(); got != 2 {
		t.Fatalf("active count after scale-up: %d", got)
	}
	// Cooldown tick: another breach is ignored.
	breach()
	if ev := tick(); len(ev) != 0 {
		t.Fatalf("cooldown tick must not scale, got %v", ev)
	}
	// Idle windows: no completions, empty queues → drain to Min after
	// IdleTicks, one replica per action.
	if ev := tick(); len(ev) != 0 {
		t.Fatalf("first idle tick must not drain, got %v", ev)
	}
	ev = tick()
	if len(ev) != 1 || ev[0].Kind != EventScaleDown || ev[0].Replica != 1 {
		t.Fatalf("second idle tick should drain replica 1, got %v", ev)
	}
	if got := c.States()[1]; got != Draining {
		t.Fatalf("replica 1 should be draining, got %v", got)
	}
	// Next tick finishes the drain (queue empty) and respects Min=1.
	tick()
	tick()
	for i := 0; i < 10; i++ {
		if ev := tick(); len(ev) != 0 {
			t.Fatalf("fleet at Min must not drain further, got %v", ev)
		}
	}
	if got := c.ActiveCount(); got != 1 {
		t.Fatalf("active count at floor: %d", got)
	}
	if !c.Settled() {
		t.Fatal("fleet should be settled at the floor")
	}
}
