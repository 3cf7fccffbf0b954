package obs

import (
	"strings"
	"testing"
)

func TestProfileRecorderEviction(t *testing.T) {
	r := NewProfileRecorder(3)
	for i := 0; i < 5; i++ {
		r.Record(CostSample{Stage: CostStageDenoiseStep, T: float64(i), Units: 1})
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want cap 3", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	snap := r.Snapshot()
	for i, s := range snap {
		if want := float64(2 + i); s.T != want {
			t.Fatalf("snapshot[%d].T = %g, want %g (oldest-first, newest retained)", i, s.T, want)
		}
	}
}

func TestProfileRecorderDefaultCap(t *testing.T) {
	r := NewProfileRecorder(0)
	if r.cap != DefaultProfileCap {
		t.Fatalf("cap = %d, want DefaultProfileCap %d", r.cap, DefaultProfileCap)
	}
}

func TestCostJSONLRoundTrip(t *testing.T) {
	in := []CostSample{
		{Stage: CostStageDenoiseStep, T: 0.5, Units: 2, Batch: 2, MaskSum: 0.3, FLOPs: 1e6, Seconds: 0.001},
		{Stage: CostStageCacheLoad, T: 0.6, Units: 1, Bytes: 4096, Tier: "host", Seconds: 0.0002},
	}
	var sb strings.Builder
	if err := WriteCostJSONL(&sb, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCostJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip = %d samples, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("sample %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestReadCostJSONLRejects(t *testing.T) {
	if _, err := ReadCostJSONL(strings.NewReader(`{"t":1,"units":1,"seconds":0.1}`)); err == nil {
		t.Fatal("missing stage accepted")
	}
	if _, err := ReadCostJSONL(strings.NewReader(`{"stage":"denoise_step","units":1,"seconds":-0.1}`)); err == nil {
		t.Fatal("negative duration accepted")
	}
	if _, err := ReadCostJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}
