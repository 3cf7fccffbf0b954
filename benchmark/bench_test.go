package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// scheduleBytes is the schedule's canonical serialisation, for the
// same-seed-same-inputs test.
func scheduleBytes(reqs []request) []byte {
	var out []byte
	for _, r := range reqs {
		out = append(out, fmt.Sprintf("%d ", r.Due)...)
		out = append(out, r.Body...)
		out = append(out, '\n')
	}
	return out
}

func TestScheduleSameSeedSameInputs(t *testing.T) {
	for _, sp := range workloads {
		a, err := schedule(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := schedule(sp, 7)
		c, _ := schedule(sp, 8)
		if !bytes.Equal(scheduleBytes(a), scheduleBytes(b)) {
			t.Errorf("%s: seed 7 gave two different schedules", sp.Name)
		}
		if bytes.Equal(scheduleBytes(a), scheduleBytes(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", sp.Name)
		}
	}
}

// Every block of stratum requests carries the seed's overall mask mix, and
// every whole second of an open loop offers exactly RateRPS requests.
func TestScheduleIsSteady(t *testing.T) {
	sp, _ := workloadByName("prod_open")
	reqs, err := schedule(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for _, r := range reqs {
		all = append(all, r.API.Mask.Ratio)
	}
	overall := mean(all)
	for b := 0; b+stratum <= len(all); b += stratum {
		if m := mean(all[b : b+stratum]); math.Abs(m-overall) > 0.35*overall {
			t.Fatalf("block at %d has mean mask %.3f, overall %.3f", b, m, overall)
		}
	}
	perSecond := make(map[int]int)
	for i, r := range reqs {
		if i > 0 && r.Due < reqs[i-1].Due {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		perSecond[int(r.Due/time.Second)]++
	}
	for s := 1; s < 60; s++ {
		if perSecond[s] != sp.RateRPS {
			t.Errorf("second %d offers %d requests, want %d", s, perSecond[s], sp.RateRPS)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 95); err != nil || v != 570 {
		t.Errorf("P95 of 1..600 = %v, %v; want 570", v, err)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("P99 of 600 samples has 6 beyond it and was not refused")
	}
	if _, err := percentile(xs[:9], 50); err == nil {
		t.Error("P50 of 9 samples was not refused")
	}
	if v := tail(xs, 99); v != 590 {
		t.Errorf("tail falls back to %v, want 590 (ten samples beyond)", v)
	}
	if v := tail(xs[:10], 99); v != 0 {
		t.Errorf("tail of 10 samples = %v, want 0", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
	if s := iqrSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("iqrSpread = %v, want 1", s)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{Name: "root", Request: 1, Parent: -1, Start: at(0), End: at(100)},
		{Name: "a", Request: 1, Parent: 0, Start: at(10), End: at(40)},
		{Name: "b", Request: 1, Parent: 0, Start: at(30), End: at(60)},  // overlaps a by 10
		{Name: "c", Request: 1, Parent: 0, Start: at(90), End: at(120)}, // runs past the root
		{Name: "a1", Request: 1, Parent: 1, Start: at(10), End: at(15)},
	}
	want := []time.Duration{at(40), at(25), at(30), at(30), at(5)}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
	spans = append(spans, span{Name: "a", Request: 1, Parent: 0, Start: at(60), End: at(70)})
	if got := stageMedians(spans)["a"]; got != 35 {
		t.Errorf("stage a totals %v ms for request 1, want 35 (25 + 10)", got)
	}
}

// fixedMeter is a host meter that beat v ms every 10 ms from t0 for a
// minute and is not running.
func fixedMeter(t0 time.Time, v float64) *hostMeter {
	b := &beater{cpu: -1}
	for i := 0; i < 6000; i++ {
		b.at = append(b.at, t0.Add(time.Duration(i)*10*time.Millisecond))
		b.beat = append(b.beat, v)
	}
	return &hostMeter{beaters: []*beater{b}}
}

// A stall that lands in a few groups moves the whole-window rate and mean
// but not the medians over groups; and a host twice as slow as the
// reference reports what the reference host would have shown.
func TestChunkedPassesOverAStallAndNormalises(t *testing.T) {
	p := pass{T0: time.Now()}
	now := time.Duration(0)
	for i := 0; i < 300; i++ {
		lat := 20 * time.Millisecond
		if i >= 100 && i < 120 {
			lat = 400 * time.Millisecond
		}
		now += lat
		p.Ops = append(p.Ops, op{Kind: "edit", OK: true, Due: now - lat, Start: now - lat, End: now})
	}
	rate, goodput, meanMS, p50MS := chunked(p, 50, fixedMeter(p.T0, 2*refBeatMS))
	if math.Abs(rate-100) > 1e-6 || math.Abs(goodput-100) > 1e-6 || math.Abs(meanMS-10) > 1e-6 || math.Abs(p50MS-10) > 1e-6 {
		t.Errorf("rate %v goodput %v mean %v p50 %v; want 100, 100, 10, 10", rate, goodput, meanMS, p50MS)
	}
}

// The factor around an interval is the mean of the beats in it (in at
// least minWindow around its middle), one outlier among them ignored; it
// widens to the nearest beats when the window holds too few; and with two
// vCPUs it is weighted by where the work ran.
func TestHostFactor(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	m := fixedMeter(t0, refBeatMS)
	b := m.beaters[0]
	b.beat[50] = 10 * refBeatMS // one beat descheduled half-way
	for i := 300; i < 400; i++ {
		b.beat[i] = 1.5 * refBeatMS // a slow second
	}
	for _, c := range []struct {
		from, to int
		want     float64
	}{{400, 600, 1}, {3200, 3800, 1.5}, {2000, 2002, 1}, {-5000, -4000, 1}, {2700, 3299, 1.25}, {2990, 3009, 1.25}} {
		if got := m.factor(at(c.from), at(c.to)); math.Abs(got-c.want) > 0.01 {
			t.Errorf("factor over [%d, %d] ms = %v, want %v", c.from, c.to, got, c.want)
		}
	}

	// A second vCPU, twice as slow, that did a quarter of the work in the
	// first ten seconds and all of it afterwards.
	m = fixedMeter(t0, refBeatMS)
	m.beaters = append(m.beaters, fixedMeter(t0, 2*refBeatMS).beaters[0])
	m.busyAt, m.busy = []time.Time{at(0), at(10000), at(20000)}, [][]float64{{0, 0}, {750, 250}, {750, 1250}}
	for _, c := range []struct {
		from, to int
		want     float64
	}{{0, 10000, 1.25}, {10000, 20000, 2}, {0, 20000, 1.625}} {
		if got := m.factor(at(c.from), at(c.to)); math.Abs(got-c.want) > 0.02 {
			t.Errorf("two vCPUs: factor over [%d, %d] ms = %v, want %v", c.from, c.to, got, c.want)
		}
	}

	live := startHostMeter()
	time.Sleep(3 * beatEvery)
	live.close()
	if f := live.recent(); f <= 0 || math.IsNaN(f) || len(live.beaters[0].beat) < 2 {
		t.Errorf("live meter: factor %v from %d beats", f, len(live.beaters[0].beat))
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is what the PR driver reads; the code's tables are what
// the runs report. They must say the same thing, within the driver's limits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code has %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, code has %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: name %q or unit %q is outside the driver's limits, or repeated", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json and %v in code must agree and lie in (0, 0.25]", m.Name, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndDefs, true)
	check("per_layer", doc.PerLayer, perLayerDefs, false)
	if doc.EndToEnd[0].Name != "setup_s" || doc.EndToEnd[0].Unit != "s" || doc.EndToEnd[0].Better != "lower" {
		t.Error("the first end-to-end metric must be setup_s in s, lower is better")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v out of contract", doc.RunSeconds, doc.Paths)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := make(map[string]float64)
	for _, d := range endToEndDefs {
		bound[d.Name] = d.Bound
	}
	mk := func(vals map[string][]float64) report {
		var rep report
		for i := 0; i < 3; i++ {
			r := result{Workload: "prod_open", EndToEnd: map[string]metric{}}
			for name, xs := range vals {
				r.EndToEnd[name] = metric{Value: xs[i]}
			}
			rep.Runs = append(rep.Runs, r)
		}
		return rep
	}
	scaled := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	lat, rate, rss := []float64{30, 30.1, 30.2}, []float64{40, 40.1, 39.9}, []float64{60, 100, 140}
	before := mk(map[string][]float64{"edit_p50_ms": lat, "edits_per_s": rate, "peak_rss_mb": rss})
	after := mk(map[string][]float64{
		"edit_p50_ms": scaled(lat, 1+bound["edit_p50_ms"]+0.02), // slower by more than the bound
		"edits_per_s": scaled(rate, 1.02),                       // faster
		"peak_rss_mb": rss,                                      // unchanged, but spread far beyond any bound
	})
	rows, failed := compareRows(before, after)
	if failed != 0 || len(rows) != 3 {
		t.Fatalf("got %d rows, %d failed", len(rows), failed)
	}
	want := map[string]string{"edit_p50_ms": "REGRESSED", "edits_per_s": "ok", "peak_rss_mb": "unresolved"}
	for _, r := range rows {
		if r.Verdict != want[r.Metric] {
			t.Errorf("%s: verdict %s (worse %.3f, spread %.3f), want %s", r.Metric, r.Verdict, r.Worse, r.Spread, want[r.Metric])
		}
	}
}

// The smoke sizing drives all four workloads through both kinds of run:
// every request succeeds, the served images match, every metric is there.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, sp := range workloads {
		for _, traced := range []bool{false, true} {
			res := runWorkload(sp, 5, smokeSizing(), traced, t.TempDir(), "")
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: %+v", sp.Name, traced, res)
			}
			got, want := res.EndToEnd, endToEndDefs
			if traced {
				got, want = res.PerLayer, perLayerDefs
			}
			for _, d := range want {
				if m, ok := got[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", sp.Name, traced, d.Name, m)
				}
			}
		}
	}
}
