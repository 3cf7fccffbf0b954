// Command benchmark is the repository's one loaded, layer-attributed
// benchmark of the serving plane. It builds an in-process serve.Server in
// the shipped flashps-server shape (sd21-sim, 2 workers, max batch 4,
// mask-aware routing, serial kernels) and drives POST /v1/edits and
// POST|DELETE /v1/templates through its HTTP handler under four workloads,
// checks the served images against a recomputation, and reports end-to-end
// metrics (tracing off) and per-layer metrics (a separate traced run).
// README.md explains the workloads, the metrics and how they interact.
//
// One run of one workload, as the PR driver invokes it (last stdout line is
// the result object):
//
//	bash benchmark/run.sh --workload prod_open --seed 1 --seconds 20 --trace 0
//
// All workloads, both passes, several seeds, as a report file; and the
// comparison of two such reports:
//
//	bash benchmark/run.sh -seed 1 -runs 3 -o after.json
//	bash benchmark/run.sh -compare before.json after.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"flashps/internal/benchfmt"
	"flashps/internal/tensor"
)

// sizing is how long each part of a run lasts. The measured window comes
// from --seconds; the rest is fixed so that set-up and warm-up are the same
// on both sides of a comparison.
type sizing struct {
	Setups  int           `json:"setups"`  // set-ups timed per end-to-end run; setup_s is their median
	Warm    time.Duration `json:"warm_ns"` // discarded pass before every measured one
	Seconds time.Duration `json:"measured_ns"`
	Replay  int           `json:"replay_requests"` // edits in the layer replay
	Checked int           `json:"checked_edits"`   // first edits recomputed and compared byte for byte
}

func fullSizing(seconds int) sizing {
	return sizing{Setups: 3, Warm: 2 * time.Second, Seconds: time.Duration(seconds) * time.Second,
		Replay: 64, Checked: 16}
}

// smokeSizing runs every code path in under a second per pass.
func smokeSizing() sizing {
	return sizing{Setups: 1, Warm: 200 * time.Millisecond, Seconds: 600 * time.Millisecond, Replay: 2, Checked: 4}
}

// result is one workload's outcome: a run with tracing off, a traced run,
// or in a report both merged.
type result struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Params      spec               `json:"params"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Succeeded   int64              `json:"succeeded"`
	Failed      int64              `json:"failed"`
	Error       string             `json:"error,omitempty"`
	EndToEnd    map[string]metric  `json:"end_to_end,omitempty"`
	PerLayer    map[string]metric  `json:"per_layer,omitempty"`
	Raw         map[string]float64 `json:"raw,omitempty"` // the host factor and wall-clock figures behind EndToEnd
	Samples     map[string]int     `json:"samples"`       // sample count behind each percentile
	PassSeconds map[string]float64 `json:"pass_seconds"`
}

// report is the file the suite mode writes.
type report struct {
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim  *string       `json:"claim"`
	Meta   benchfmt.Meta `json:"meta"`
	Sizing sizing        `json:"sizing"`
	Runs   []result      `json:"runs"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the result object as the last line")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "length of the measured window in seconds")
		traceArg = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; -1 (report mode only): both")
		runs     = flag.Int("runs", 1, "report mode: repeat with seeds seed, seed+1, ...")
		out      = flag.String("o", "", "report mode: write the report here (default stdout); with -compare: write the comparison as JSON")
		traceOut = flag.String("trace-out", "", "write the traced run's spans here as Chrome trace_event JSON")
		workdir  = flag.String("workdir", ".bench_build", "directory for template spill files; must exist")
		smoke    = flag.Bool("smoke", false, "one-second windows: exercises every path, measures nothing")
		probe    = flag.Int("probe", 0, "run the host meter alone for this many seconds and print the median beat (refBeatMS is its quiet-host value)")
		compare  = flag.Bool("compare", false, "compare two report files given as arguments: one row per workload x metric")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		if err := compareReports(flag.Arg(0), flag.Arg(1), *out); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: need at least 1", *seconds))
	}
	sz := fullSizing(*seconds)
	if *smoke {
		sz = smokeSizing()
	}
	// The shipped shape: serial kernels, and no more scheduler threads than
	// a small serving host has.
	tensor.SetParallelism(1)
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *probe > 0 {
		meter := startHostMeter()
		time.Sleep(time.Duration(*probe) * time.Second)
		meter.close()
		for _, b := range meter.beaters {
			fmt.Printf("vCPU %d: %d beats, median %.4f ms, quartiles %.4f\n", b.cpu, len(b.beat), median(b.beat), quartiles(b.beat))
		}
		return
	}
	if *workload != "" {
		sp, err := workloadByName(*workload)
		if err != nil {
			fatal(err)
		}
		if *traceArg != 0 && *traceArg != 1 {
			fatal(fmt.Errorf("-trace must be 0 or 1 with -workload"))
		}
		res := runWorkload(sp, *seed, sz, *traceArg == 1, *workdir, *traceOut)
		printResult(res)
		metrics := res.EndToEnd
		if *traceArg == 1 {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(map[string]any{"correct": res.Correct, "attempted": res.Attempted,
			"failed": res.Failed, "metrics": metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	rep := report{Meta: benchfmt.CollectMeta(), Sizing: sz}
	ok := true
	for r := 0; r < *runs; r++ {
		for _, sp := range workloads {
			var merged result
			for _, traced := range []bool{false, true} {
				if *traceArg >= 0 && traced != (*traceArg == 1) {
					continue
				}
				res := runWorkload(sp, *seed+uint64(r), sz, traced, *workdir, *traceOut)
				printResult(res)
				merged = merge(merged, res)
			}
			ok = ok && merged.Correct
			rep.Runs = append(rep.Runs, merged)
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	if !ok {
		fatal(fmt.Errorf("a workload failed its output check or had failed requests"))
	}
}

// merge folds a traced run's result into the untraced one's (or returns b
// when a is empty).
func merge(a, b result) result {
	if a.Workload == "" {
		return b
	}
	a.Correct = a.Correct && b.Correct
	a.Attempted += b.Attempted
	a.Succeeded += b.Succeeded
	a.Failed += b.Failed
	if a.Error == "" {
		a.Error = b.Error
	}
	if b.EndToEnd != nil {
		a.EndToEnd = b.EndToEnd
	}
	if b.PerLayer != nil {
		a.PerLayer = b.PerLayer
	}
	if b.Raw != nil {
		a.Raw = b.Raw
	}
	for k, v := range b.Samples {
		a.Samples[k] = v
	}
	for k, v := range b.PassSeconds {
		a.PassSeconds[k] = v
	}
	return a
}

// runWorkload performs one run. It never returns an error: anything that
// goes wrong makes the result incorrect and is named in its Error.
func runWorkload(sp spec, seed uint64, sz sizing, traced bool, workdir, traceOut string) result {
	res := result{Workload: sp.Name, Seed: seed, Params: sp,
		Samples: map[string]int{}, PassSeconds: map[string]float64{}}
	// In report mode one process runs many workloads: hand back what the
	// previous one freed and reset VmHWM, so peak_rss_mb is this run's own.
	resetPeakRSS()
	var (
		h   *harness
		err error
	)
	meter := startHostMeter()
	defer meter.close()
	if traced {
		h, err = runTraced(&res, sz, workdir, traceOut, meter)
	} else {
		h, err = runEndToEnd(&res, sz, workdir, meter)
	}
	if h != nil {
		if err == nil && h.firstErr != "" {
			err = fmt.Errorf("%d requests failed, first: %s", h.failed.Load(), h.firstErr)
		}
		res.retire(h)
	}
	res.Attempted = max(res.Attempted, 1)
	res.Succeeded = res.Attempted - res.Failed
	res.Correct = err == nil
	if err != nil {
		res.Error = err.Error()
	}
	return res
}

// resetPeakRSS returns freed memory to the kernel and restarts VmHWM from
// what is left (on kernels without clear_refs the peak stays cumulative).
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// retire closes a harness and adds its request counts to the result.
func (r *result) retire(h *harness) {
	r.Attempted += h.attempted.Load()
	r.Failed += h.failed.Load()
	h.close()
}

// timed runs fn and adds its wall time to what is recorded under name.
func (r *result) timed(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	r.PassSeconds[name] += time.Since(start).Seconds()
	return err
}

// window drives the harness for dur and records the wall time under name.
func (r *result) window(name string, h *harness, dur time.Duration, tr *tracer) (p pass) {
	r.timed(name, func() error { p = h.run(dur, tr); return nil })
	return p
}

// runEndToEnd is the run with tracing off: Setups complete set-ups, a
// warm-up, the measured window, then the output check. Every timing is
// divided by the host factor over its own interval (host.go). It returns the
// harness still open, for the caller to retire.
func runEndToEnd(res *result, sz sizing, workdir string, meter *hostMeter) (h *harness, err error) {
	var setups, prepares []float64
	err = res.timed("setup", func() error {
		for i := 0; i < sz.Setups; i++ {
			if h != nil {
				res.retire(h)
			}
			if h, err = newHarness(res.Params, res.Seed, sz.Checked, workdir, meter); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, h.setup)
			prepares = append(prepares, h.prepares...)
			h.prepares = nil
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The peak is that of serving, not of building three servers in a row:
	// hand back what the set-ups freed and start the high-water mark again.
	resetPeakRSS()
	res.window("warm", h, sz.Warm, nil)
	p := res.window("measured", h, sz.Seconds, nil)
	time.Sleep(minWindow / 2) // the last edits' windows reach this far into the meter's record
	rss, err := peakRSSMB()
	if err != nil {
		return h, err
	}

	edits := p.edits()
	prepares = append(prepares, h.prepares...)
	if len(edits) == 0 || len(prepares) == 0 {
		return h, fmt.Errorf("%d successful edits and %d prepares are too few to report", len(edits), len(prepares))
	}
	rate, goodput, meanMS, p50MS := chunked(p, res.Params.LimitMS, meter)
	res.Samples["edit_p50_ms"], res.Samples["prepare_p50_ms"], res.Samples["setup_s"] = len(edits), len(prepares), len(setups)
	raw := make([]float64, len(edits))
	for i, o := range edits {
		raw[i] = ms(o.latency())
	}
	res.Raw = map[string]float64{
		"host_factor":     meter.factor(p.T0, p.T0.Add(p.Elapsed)),
		"raw_edit_p50_ms": median(raw),
		"raw_edits_per_s": float64(len(raw)) / p.Elapsed.Seconds(),
	}
	res.EndToEnd, err = withUnits(endToEndDefs, map[string]float64{
		"setup_s":        median(setups),
		"edit_p50_ms":    p50MS,
		"edit_mean_ms":   meanMS,
		"edits_per_s":    rate,
		"goodput_per_s":  goodput,
		"prepare_p50_ms": median(prepares),
		"peak_rss_mb":    rss,
	})
	if err != nil {
		return h, err
	}
	return h, res.timed("check", func() error {
		ref, err := newReference(res.Seed)
		if err != nil {
			return err
		}
		return ref.verifyAll(h)
	})
}

// chunks is how many consecutive groups of completions the rates and the
// mean are taken over.
const chunks = 15

// chunked returns the window's end-to-end edit figures at reference host
// speed: an edit's latency is divided by the host factor around its own
// interval, a stretch of time by the factor over it. The median latency is
// that of all the window's edits. The mean and the rates are not robust the
// way a median is — the host meter cannot see everything (a collection
// cycle, a stall between two beats) — so the edits are cut, in completion
// order, into chunks groups and each figure is the median over the groups
// of: completions per second, within-limit completions per second, mean
// latency. What the meter missed lands in a few groups and the median passes
// over them.
func chunked(p pass, limitMS float64, meter *hostMeter) (rate, goodput, meanMS, p50MS float64) {
	edits := p.edits()
	sort.Slice(edits, func(a, b int) bool { return edits[a].End < edits[b].End })
	lat := make([]float64, len(edits))
	for i, o := range edits {
		lat[i] = ms(o.latency()) / meter.factor(p.T0.Add(o.Due), p.T0.Add(o.End))
	}
	var rates, goods, means []float64
	groups := min(chunks, len(edits)) // fewer only in a smoke-sized window
	per, from := len(edits)/groups, time.Duration(0)
	for c := 0; c < groups; c++ {
		group := lat[c*per : (c+1)*per]
		within := 0
		for _, l := range group {
			if l <= limitMS {
				within++
			}
		}
		to := edits[(c+1)*per-1].End
		seconds := (to - from).Seconds() / meter.factor(p.T0.Add(from), p.T0.Add(to))
		from = to
		rates = append(rates, float64(per)/seconds)
		goods = append(goods, float64(within)/seconds)
		means = append(means, mean(group))
	}
	return median(rates), median(goods), median(means), median(lat)
}

// runTraced is the separate traced run that yields the per-layer metrics:
// one set-up, a warm-up, the window split into an untraced and a traced
// half (their throughput difference is the tracing overhead), the output
// check, the layer replay and the op-level loops. Its figures are wall-clock
// ones, as measured; loadgen.host_factor says how fast the host was.
func runTraced(res *result, sz sizing, workdir, traceOut string, meter *hostMeter) (*harness, error) {
	h, err := newHarness(res.Params, res.Seed, sz.Checked, workdir, meter)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.PassSeconds["layers.setup"] = h.setup
	tr := newTracer()
	res.window("layers.warm", h, sz.Warm, nil)
	before := h.counters()
	untraced := res.window("layers.untraced", h, sz.Seconds/2, nil)
	tracedPass := res.window("layers.traced", h, sz.Seconds-sz.Seconds/2, tr)
	time.Sleep(minWindow / 2)
	after := h.counters()

	out := make(map[string]float64)
	loadLayers(out, h, []pass{untraced, tracedPass}, before, after)
	out["loadgen.host_factor"] = meter.factor(untraced.T0, tracedPass.T0.Add(tracedPass.Elapsed))
	res.Samples["loadgen.edit_p95_ms"] = int(out["loadgen.edit_tail_samples"])
	if len(untraced.edits()) == 0 || len(tracedPass.edits()) == 0 {
		return h, fmt.Errorf("too few successful edits to compare the traced and untraced halves")
	}
	plain, _, _, _ := chunked(untraced, res.Params.LimitMS, meter)
	withSpans, _, _, _ := chunked(tracedPass, res.Params.LimitMS, meter)
	out["trace.overhead_share"] = 1 - withSpans/plain

	ref, err := newReference(res.Seed)
	if err != nil {
		return h, err
	}
	if err := res.timed("layers.check", func() error { return ref.verifyAll(h) }); err != nil {
		return h, err
	}
	if err := res.timed("layers.replay", func() error { return replayLayers(out, h, ref, tr, sz.Replay) }); err != nil {
		return h, err
	}
	res.Samples["trace.stage_sum_over_e2e"] = sz.Replay
	if err := res.timed("layers.ops", func() error { return opLayers(out, h, ref, workdir) }); err != nil {
		return h, err
	}
	if res.PerLayer, err = withUnits(perLayerDefs, out); err != nil {
		return h, err
	}
	if traceOut == "" {
		return h, nil
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return h, err
	}
	if err := writeChrome(f, tr.snapshot()); err != nil {
		f.Close()
		return h, err
	}
	return h, f.Close()
}

// printResult prints every metric by name with its unit, and the counts.
func printResult(r result) {
	status := "correct"
	if !r.Correct {
		status = "INCORRECT: " + r.Error
	}
	fmt.Printf("%s seed %d: attempted %d succeeded %d failed %d, %s\n",
		r.Workload, r.Seed, r.Attempted, r.Succeeded, r.Failed, status)
	for _, set := range []map[string]metric{r.EndToEnd, r.PerLayer} {
		for _, name := range sortedKeys(set) {
			line := fmt.Sprintf("  %-32s %14.4f %s", name, set[name].Value, set[name].Unit)
			if n, ok := r.Samples[name]; ok {
				line += fmt.Sprintf("  (n=%d)", n)
			}
			fmt.Println(line)
		}
	}
	for _, name := range sortedKeys(r.Raw) {
		fmt.Printf("  %-32s %14.4f  (as measured, not normalised)\n", name, r.Raw[name])
	}
	for _, name := range sortedKeys(r.PassSeconds) {
		fmt.Printf("  pass %-27s %14.3f s\n", name, r.PassSeconds[name])
	}
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}
