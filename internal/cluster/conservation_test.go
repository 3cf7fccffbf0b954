package cluster

import (
	"fmt"
	"testing"
	"time"

	"flashps/internal/batching"
	"flashps/internal/faults"
	"flashps/internal/fleet"
	"flashps/internal/perfmodel"
	"flashps/internal/tensor"
	"flashps/internal/workload"
)

// faultyRun is one seeded run of the simulator's executor under a random
// fault schedule: worker crashes and step delays from the injector, client
// cancels and deadlines on the virtual clock, a bounded queue so overload
// sheds, and a retry budget. Everything derives from seed.
func faultyRun(seed uint64) (reqs []workload.Request, got []batching.RequestStat, dec []batching.Decision, maxRetries int, err error) {
	rng := tensor.NewRNG(seed)
	workers := 2 + rng.Intn(3)
	cfg := Config{
		System:   SystemFlashPS,
		Batching: Batching(rng.Intn(3)),
		Policy:   Policy(rng.Intn(4)),
		Workers:  workers,
		Profile:  perfmodel.SD21Paper,
		MaxBatch: 1 + rng.Intn(4),
		Seed:     seed,
	}
	var fc *fleet.Config
	if router := fleet.RouterKind(rng.Intn(3)); router != fleet.RouterCore {
		fc = &fleet.Config{Router: router, MaxReplicas: workers + rng.Intn(2)}
		if rng.Intn(3) == 0 {
			fc.TokenRate, fc.TokenBurst = 4+10*rng.Float64(), 3
		}
		if rng.Intn(2) == 0 {
			fc.Autoscale = fleet.AutoscaleConfig{Enabled: true, Interval: 0.5, UpTicks: 1, IdleTicks: 2, Cooldown: 1}
		}
	}
	reqs, err = workload.Generate(workload.TraceConfig{
		N: 30 + rng.Intn(50), RPS: 4 + 12*rng.Float64(),
		Dist:      workload.AllDists()[rng.Intn(3)],
		Templates: 1 + rng.Intn(6), ZipfS: 1.1, Seed: seed,
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	inj := faults.New(seed)
	for w := 0; w < workers; w++ {
		if rng.Intn(2) == 0 {
			inj.After(faults.WorkerCrash(w), rng.Intn(400))
			inj.Fail(faults.WorkerCrash(w), 1+rng.Intn(3))
		}
	}
	if rng.Intn(2) == 0 {
		inj.SetDelay(faults.StepStage, time.Duration(1+rng.Intn(20))*time.Millisecond,
			time.Duration(rng.Intn(10))*time.Millisecond)
	}
	maxRetries = rng.Intn(3)
	maxQueue := []int{0, 2, 5}[rng.Intn(3)]

	rn, err := newRun(cfg, fc, nil)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	rn.core.MaxQueue, rn.core.MaxRetries, rn.core.RetryBackoff = maxQueue, maxRetries, 0.01
	rn.exec.Faults = inj
	rn.start()
	for _, r := range reqs {
		r := r
		deadline := 0.0
		switch rng.Intn(8) {
		case 0: // the caller's deadline
			deadline = 0.05 + 3*rng.Float64()
		case 1: // the caller hangs up
			rn.clock.At(r.Arrival+3*rng.Float64(), func() {
				rn.runner.Abort(r.ID, batching.ReasonCanceled)
			})
		}
		rn.clock.At(r.Arrival, func() { rn.runner.Submit(r, deadline) })
	}
	fleet.Autoscale(rn.ctrl, rn.runner, &rn.clock, reqs[len(reqs)-1].Arrival)
	if _, err := rn.drain(len(reqs)); err != nil {
		return nil, nil, nil, 0, err
	}
	for w, n := range rn.runner.OutstandingCounts() {
		if n != 0 {
			return nil, nil, nil, 0, fmt.Errorf("worker %d still holds %d requests after the drain", w, n)
		}
	}
	return reqs, rn.seen.done, rn.log.Snapshot(), maxRetries, nil
}

// TestConservationUnderFaults is the virtual-time conservation property:
// over random traces, fault schedules, disciplines and routers, every
// submitted request reaches exactly one terminal state, a retried request
// never completes twice, nothing is pending after the drain, the decision
// log replays to the states the Runner reported, and the whole run is a
// function of its seed. A failure names the seed.
func TestConservationUnderFaults(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 30
	}
	outcomes := map[string]int{}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		reqs, got, dec, maxRetries, err := faultyRun(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fail := func(format string, args ...interface{}) {
			t.Helper()
			t.Fatalf("seed %d: %s", seed, fmt.Sprintf(format, args...))
		}

		final := map[int]batching.RequestStat{}
		for _, st := range got {
			if prev, dup := final[st.ID]; dup {
				fail("request %d reached two terminal states: %+v then %+v", st.ID, prev, st)
			}
			final[st.ID] = st
		}
		if len(final) != len(reqs) {
			fail("%d requests submitted, %d terminal states", len(reqs), len(final))
		}

		// Fold the decision log per request.
		type folded struct{ places, admits, sheds, rejects, lastPlace, lastAdmit int }
		log := map[int]*folded{}
		for _, d := range dec {
			f := log[int(d.Request)]
			if f == nil {
				f = &folded{lastPlace: -1, lastAdmit: -1}
				log[int(d.Request)] = f
			}
			switch d.Kind {
			case batching.KindPlace:
				f.places, f.lastPlace = f.places+1, d.Worker
			case batching.KindAdmit:
				f.admits, f.lastAdmit = f.admits+1, d.Worker
			case batching.KindShed:
				f.sheds++
			case batching.KindReject:
				f.rejects++
			}
		}
		for _, r := range reqs {
			st, ok := final[r.ID]
			if !ok {
				fail("request %d has no terminal state", r.ID)
			}
			f := log[r.ID]
			if f == nil {
				f = &folded{lastPlace: -1, lastAdmit: -1}
			}
			if st.Retries > maxRetries {
				fail("request %d retried %d times, budget %d", r.ID, st.Retries, maxRetries)
			}
			// One placement per attempt that found a replica.
			places := 1 + st.Retries
			if st.Outcome == batching.Rejected && st.Reason != batching.ReasonOverloaded {
				places = 0 // turned away before placement
			}
			if f.places != places {
				fail("request %d (%+v): log has %d placements, want %d", r.ID, st, f.places, places)
			}
			if (st.Outcome == batching.Shed) != (f.sheds == 1) || f.sheds > 1 {
				fail("request %d (%+v): log has %d shed decisions", r.ID, st, f.sheds)
			}
			if overloaded := st.Outcome == batching.Rejected && st.Reason == batching.ReasonOverloaded; overloaded != (f.rejects == 1) || f.rejects > 1 {
				fail("request %d (%+v): log has %d reject decisions", r.ID, st, f.rejects)
			}
			if st.Outcome == batching.Completed {
				if f.lastAdmit != st.Worker || f.lastPlace != st.Worker || f.admits < 1 {
					fail("request %d completed on worker %d, log placed it on %d and admitted it on %d",
						r.ID, st.Worker, f.lastPlace, f.lastAdmit)
				}
				if !(st.Arrival <= st.Admit && st.Admit <= st.Finish && st.Finish <= st.Complete) {
					fail("request %d timeline out of order: %+v", r.ID, st)
				}
			}
			outcomes[st.Label()]++
			if st.Retries > 0 {
				outcomes["retried"]++
			}
		}

		// The run is a function of its seed.
		_, again, decAgain, _, err := faultyRun(seed)
		if err != nil {
			fail("second run: %v", err)
		}
		if err := batching.DiffDecisions(dec, decAgain); err != nil {
			fail("second run decided differently: %v", err)
		}
		for i := range got {
			if i >= len(again) || got[i] != again[i] {
				fail("second run's terminal state %d differs: %+v", i, got[i])
			}
		}
	}
	t.Logf("%d seeds: %v", seeds, outcomes)
	// The schedule must reach every transition it is there to test.
	for _, label := range []string{"ok", "shed", "deadline", "canceled", "rejected", "error", "retried"} {
		if outcomes[label] == 0 {
			t.Errorf("no request ended %q in %d seeds: %v", label, seeds, outcomes)
		}
	}
}
