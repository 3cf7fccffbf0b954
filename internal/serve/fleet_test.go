package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"sync"
	"testing"
	"time"

	"flashps/internal/diffusion"
	"flashps/internal/faults"
	"flashps/internal/fleet"
	"flashps/internal/img"
	"flashps/internal/model"
)

// TestFleetAffinityRoutingAndEndpoint drives the affinity router with
// replica-local staging armed: a template-skewed workload must pay at most
// one staging pass per (replica, template), the stagings counter must
// reflect those passes, and GET /v1/fleet's snapshot must report the
// router, the tracked template sets, and the staged sets.
func TestFleetAffinityRoutingAndEndpoint(t *testing.T) {
	s := faultServer(t, Config{
		Workers: 2, MaxBatch: 4,
		Router:          "affinity",
		StagedTemplates: 4,
	})
	prepareTemplate(t, s, 1)
	prepareTemplate(t, s, 2)
	for i := 0; i < 12; i++ {
		tpl := uint64(i%2 + 1)
		if _, err := s.SubmitEdit(context.Background(), EditRequestAPI{
			TemplateID: tpl, Prompt: "edit", Seed: 3,
			Mask: MaskSpec{Type: "ratio", Ratio: 0.25, Seed: 2},
		}); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
	}

	stagings := metricValue(t, s, "flashps_replica_stagings_total")
	if stagings < 1 {
		t.Fatalf("flashps_replica_stagings_total = %v, want ≥ 1", stagings)
	}
	// 2 templates × 2 replicas bounds the distinct (replica, template)
	// pairs; the affinity router should not re-stage within the run.
	if stagings > 4 {
		t.Fatalf("flashps_replica_stagings_total = %v, want ≤ 4 (one pass per replica-template pair)", stagings)
	}

	fl := s.Fleet()
	if fl.Router != "affinity" {
		t.Fatalf("fleet router = %q, want affinity", fl.Router)
	}
	if len(fl.Replicas) != 2 {
		t.Fatalf("fleet reports %d replicas, want 2", len(fl.Replicas))
	}
	var tracked, staged int
	for _, r := range fl.Replicas {
		if r.State != "active" || !r.Alive {
			t.Fatalf("replica %d: state=%q alive=%v, want active/true", r.ID, r.State, r.Alive)
		}
		tracked += len(r.Templates)
		staged += len(r.StagedTemplates)
	}
	if tracked == 0 {
		t.Fatal("no replica tracks any template after 12 routed edits")
	}
	if staged != int(stagings) {
		t.Fatalf("staged template entries = %d, stagings counter = %v; staging and the snapshot disagree", staged, stagings)
	}

	// The serve health report carries the same per-replica detail.
	h := s.Health()
	if len(h.Replicas) != 2 {
		t.Fatalf("health reports %d replicas, want 2", len(h.Replicas))
	}
	if h.Status != "ok" {
		t.Fatalf("health status = %q, want ok", h.Status)
	}
}

// TestFleetAdmissionRejects pins the live admission stage: the token
// bucket turns an over-burst request away with a retryable overloaded
// error, and a deadline below the service floor is rejected up front,
// non-retryably, before any routing work.
func TestFleetAdmissionRejects(t *testing.T) {
	t.Run("rate_limited", func(t *testing.T) {
		s := faultServer(t, Config{
			Workers: 1, MaxBatch: 4,
			Router:    "least-loaded",
			AdmitRate: 0.001, AdmitBurst: 1,
		})
		prepareTemplate(t, s, 1)
		if _, err := s.SubmitEdit(context.Background(), EditRequestAPI{
			TemplateID: 1, Prompt: "edit", Seed: 3,
			Mask: MaskSpec{Type: "ratio", Ratio: 0.25, Seed: 2},
		}); err != nil {
			t.Fatalf("first edit should consume the burst token, got %v", err)
		}
		_, err := s.SubmitEdit(context.Background(), EditRequestAPI{
			TemplateID: 1, Prompt: "edit", Seed: 3,
			Mask: MaskSpec{Type: "ratio", Ratio: 0.25, Seed: 2},
		})
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeOverloaded || !ae.Retryable {
			t.Fatalf("second edit: got %v, want retryable %s", err, CodeOverloaded)
		}
		var rejects int
		for _, e := range s.ctrl.Events() {
			if e.Kind == fleet.EventReject && e.Reason == "rate_limited" {
				rejects++
			}
		}
		if rejects != 1 {
			t.Fatalf("controller logged %d rate_limited rejects, want 1", rejects)
		}
	})
	t.Run("deadline_infeasible", func(t *testing.T) {
		s := faultServer(t, Config{
			Workers: 1, MaxBatch: 4,
			AdmitMinServiceMS: 50,
		})
		prepareTemplate(t, s, 1)
		_, err := s.SubmitEdit(context.Background(), EditRequestAPI{
			TemplateID: 1, Prompt: "edit", Seed: 3, DeadlineMS: 10,
			Mask: MaskSpec{Type: "ratio", Ratio: 0.25, Seed: 2},
		})
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeDeadlineExceeded || ae.Retryable {
			t.Fatalf("got %v, want non-retryable %s", err, CodeDeadlineExceeded)
		}
		// A feasible deadline still passes the floor.
		if _, err := s.SubmitEdit(context.Background(), EditRequestAPI{
			TemplateID: 1, Prompt: "edit", Seed: 3, DeadlineMS: 5000,
			Mask: MaskSpec{Type: "ratio", Ratio: 0.25, Seed: 2},
		}); err != nil {
			t.Fatalf("feasible deadline rejected: %v", err)
		}
	})
}

// TestFleetAutoscaleWallClock runs the SLO-driven autoscaler on the
// wall-clock driver: a queue pile-up on a single active replica triggers
// the saturation breach and activates the standby replica; once the burst
// drains and the fleet idles, the standby is drained back Down.
func TestFleetAutoscaleWallClock(t *testing.T) {
	inj := faults.New(7)
	inj.SetDelay(faults.StepStage, 15*time.Millisecond, 0) // ≥75ms per request
	s := faultServer(t, Config{
		Workers: 1, MaxReplicas: 2, MaxBatch: 1,
		Router: "least-loaded",
		Autoscale: fleet.AutoscaleConfig{
			Enabled: true, Interval: 0.02,
			UpTicks: 1, IdleTicks: 2, Cooldown: 1, Min: 1,
		},
		Faults: inj,
	})
	prepareTemplate(t, s, 1)

	activeReplicas := func() int {
		n := 0
		for _, r := range s.Fleet().Replicas {
			if r.State == "active" {
				n++
			}
		}
		return n
	}
	if got := activeReplicas(); got != 1 {
		t.Fatalf("fleet starts with %d active replicas, want 1 (standby Down)", got)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			if _, err := s.SubmitEdit(context.Background(), EditRequestAPI{
				TemplateID: 1, Prompt: "edit", Seed: seed,
				Mask: MaskSpec{Type: "ratio", Ratio: 0.25, Seed: 2},
			}); err != nil {
				t.Errorf("edit: %v", err)
			}
		}(uint64(i))
	}
	waitUntil(t, 5*time.Second, func() bool { return activeReplicas() == 2 },
		"queue pile-up never scaled the standby replica up")
	wg.Wait()
	waitUntil(t, 5*time.Second, func() bool {
		fl := s.Fleet()
		active, draining := 0, 0
		for _, r := range fl.Replicas {
			switch r.State {
			case "active":
				active++
			case "draining":
				draining++
			}
		}
		return active == 1 && draining == 0
	}, "idle fleet never drained back to the Min=1 floor")

	var ups, downs int
	for _, e := range s.ctrl.Events() {
		switch e.Kind {
		case fleet.EventScaleUp:
			ups++
		case fleet.EventScaleDown:
			downs++
		}
	}
	if ups == 0 || downs == 0 {
		t.Fatalf("scale events: %d up, %d down; want both > 0", ups, downs)
	}
}

// TestStagePassChecksum: the staging pass sums the tensors' bytes where they
// lie; the checksum and byte count are those of the traversal encoded float
// by float — Z0, Noise, every step's Y/K/V in both passes, Cond.
func TestStagePassChecksum(t *testing.T) {
	eng, err := diffusion.NewEngine(testModel, 7)
	if err != nil {
		t.Fatal(err)
	}
	h, w := eng.Codec.ImageSize(testModel.LatentH, testModel.LatentW)
	tc, _, err := eng.PrepareTemplate(3, img.SynthTemplate(3, h, w), "p", true)
	if err != nil {
		t.Fatal(err)
	}
	crc := crc32.NewIEEE()
	var want int64
	add := func(data []float32) {
		var b []byte
		for _, v := range data {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		crc.Write(b)
		want += int64(len(b))
	}
	add(tc.Z0.Data)
	add(tc.Noise.Data)
	for _, steps := range [][]*model.StepActivations{tc.Steps, tc.UncondSteps} {
		for _, st := range steps {
			for _, b := range st.Blocks {
				add(b.Y.Data)
				add(b.K.Data)
				add(b.V.Data)
			}
		}
	}
	add(tc.Cond)
	if n, sum := stagePass(tc); n != want || sum != crc.Sum32() {
		t.Fatalf("stagePass = %d bytes, checksum %08x; float by float %d bytes, %08x", n, sum, want, crc.Sum32())
	}
}
