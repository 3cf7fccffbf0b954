// Command flashps-client drives a running flashps-server over HTTP: it
// prepares templates, submits single edits, or fires an open-loop Poisson
// workload and reports latency statistics — the client side of the
// paper's artifact evaluation scripts (send requests at varying RPS,
// measure end-to-end latency).
//
// Usage:
//
//	flashps-client -addr http://localhost:8005 -prepare -template 1 -image-seed 7
//	flashps-client -addr http://localhost:8005 -edit -template 1 -prompt "a red dress" -ratio 0.2
//	flashps-client -addr http://localhost:8005 -edit -template 1 -deadline-ms 500
//	flashps-client -addr http://localhost:8005 -list
//	flashps-client -addr http://localhost:8005 -delete -template 1
//	flashps-client -addr http://localhost:8005 -pin -template 1
//	flashps-client -addr http://localhost:8005 -unpin -template 1
//	flashps-client -addr http://localhost:8005 -cache-stats
//	flashps-client -addr http://localhost:8005 -load -n 50 -rps 4 -templates 1,2
//	flashps-client -addr http://localhost:8005 -fleet
//	flashps-client -addr http://localhost:8005 -alerts
//	flashps-client -addr http://localhost:8005 -stats
//
// Server errors arrive as the structured JSON envelope documented in
// docs/API.md; the client surfaces the stable code and whether the
// request is retryable.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"flashps/internal/obs"
	"flashps/internal/serve"
	"flashps/internal/tensor"
	"flashps/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "http://localhost:8005", "server base URL")
		prepare    = flag.Bool("prepare", false, "prepare a template")
		edit       = flag.Bool("edit", false, "submit one edit")
		list       = flag.Bool("list", false, "list cached templates")
		del        = flag.Bool("delete", false, "delete a template's cache entries")
		pin        = flag.Bool("pin", false, "pin a template against eviction")
		unpin      = flag.Bool("unpin", false, "clear a template's pin")
		cacheStats = flag.Bool("cache-stats", false, "fetch per-tier cache statistics")
		load       = flag.Bool("load", false, "run an open-loop Poisson workload")
		fleetSnap  = flag.Bool("fleet", false, "fetch the fleet control-plane snapshot (per-replica table)")
		alerts     = flag.Bool("alerts", false, "fetch the SLO burn-rate alert states (per-class table)")
		stats      = flag.Bool("stats", false, "fetch server statistics")
		template   = flag.Uint64("template", 1, "template id")
		tplList    = flag.String("templates", "1", "comma-separated template ids for -load")
		imgSeed    = flag.Uint64("image-seed", 7, "synthetic template image seed (prepare)")
		prompt     = flag.String("prompt", "an edit", "prompt")
		ratio      = flag.Float64("ratio", 0.2, "mask ratio")
		seed       = flag.Uint64("seed", 1, "request seed")
		n          = flag.Int("n", 50, "requests for -load")
		rps        = flag.Float64("rps", 2, "Poisson rate for -load")
		dist       = flag.String("dist", "production", "mask distribution for -load")
		out        = flag.String("o", "", "save the edited image PNG to this path (edit)")
		deadline   = flag.Int64("deadline-ms", 0, "server-side deadline in ms (0 = none)")
		policy     = flag.String("policy", "", "step-caching policy: off|block|layer|timestep|combined (empty = server default)")
		timeout    = flag.Duration("timeout", 5*time.Minute, "per-request timeout")
	)
	flag.Parse()

	c := &client{base: strings.TrimRight(*addr, "/"), http: &http.Client{Timeout: *timeout}}
	switch {
	case *prepare:
		var resp serve.PrepareResponse
		err := c.post("/v1/templates", serve.PrepareRequest{
			TemplateID: *template, ImageSeed: *imgSeed, Prompt: *prompt,
		}, &resp)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("template %d prepared: %.1f MiB cache in %.0f ms\n",
			resp.TemplateID, float64(resp.CacheBytes)/(1<<20), resp.PrepareMS)
	case *edit:
		var resp serve.EditResponse
		err := c.post("/v1/edits", serve.EditRequestAPI{
			TemplateID: *template, Prompt: *prompt, Seed: *seed,
			Mask:        serve.MaskSpec{Type: "ratio", Ratio: *ratio, Seed: *seed},
			ReturnImage: *out != "",
			DeadlineMS:  *deadline,
			Policy:      *policy,
		}, &resp)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("edit served by worker %d: mask %.2f, queue %.1f ms, infer %.1f ms, total %.1f ms\n",
			resp.Worker, resp.MaskRatio, resp.QueueMS, resp.InferenceMS, resp.TotalMS)
		if resp.Policy != "" && resp.Policy != "off" {
			fmt.Printf("step policy %s: %.0f%% of block executions reused\n",
				resp.Policy, resp.ReusedBlockRatio*100)
		}
		if resp.Degraded {
			fmt.Printf("degraded: %s\n", resp.DegradedReason)
		}
		if resp.Retries > 0 {
			fmt.Printf("retries: %d\n", resp.Retries)
		}
		if *out != "" {
			if err := os.WriteFile(*out, resp.ImagePNG, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (%d bytes)\n", *out, len(resp.ImagePNG))
		}
	case *list:
		var resp serve.TemplateListResponse
		if err := c.get("/v1/templates", &resp); err != nil {
			fatal(err)
		}
		if len(resp.Templates) == 0 {
			fmt.Println("no templates cached")
		}
		for _, tpl := range resp.Templates {
			pinned := ""
			if tpl.Pinned {
				pinned = " pinned"
			}
			fmt.Printf("template %d: %.1f MiB (%s)%s, %d hits\n",
				tpl.TemplateID, float64(tpl.Bytes)/(1<<20), tpl.Tier, pinned, tpl.Hits)
		}
	case *pin:
		var resp serve.PinResponse
		if err := c.post(fmt.Sprintf("/v1/templates/%d/pin", *template), nil, &resp); err != nil {
			fatal(err)
		}
		fmt.Printf("template %d pinned\n", resp.TemplateID)
	case *unpin:
		var resp serve.PinResponse
		if err := c.del(fmt.Sprintf("/v1/templates/%d/pin", *template), &resp); err != nil {
			fatal(err)
		}
		fmt.Printf("template %d unpinned\n", resp.TemplateID)
	case *cacheStats:
		var resp serve.CacheStatsResponse
		if err := c.get("/v1/cache/stats", &resp); err != nil {
			fatal(err)
		}
		for _, tier := range resp.Tiers {
			capacity := "unbounded"
			if tier.CapacityBytes > 0 {
				capacity = fmt.Sprintf("%.1f MiB", float64(tier.CapacityBytes)/(1<<20))
			}
			fmt.Printf("%s: %d templates (%d pinned), %.1f MiB used of %s, hit rate %.0f%%, %d evictions\n",
				tier.Tier, tier.Entries, tier.Pinned, float64(tier.UsedBytes)/(1<<20),
				capacity, 100*tier.HitRate, tier.Evictions)
			if tier.DedupRatio > 0 {
				fmt.Printf("%s: dedup %.2f× (%d blocks, %d shared)\n",
					tier.Tier, tier.DedupRatio, tier.Blocks, tier.SharedBlocks)
			}
		}
	case *del:
		var resp serve.DeleteTemplateResponse
		if err := c.del(fmt.Sprintf("/v1/templates/%d", *template), &resp); err != nil {
			fatal(err)
		}
		fmt.Printf("template %d deleted\n", resp.TemplateID)
	case *load:
		templates, err := parseIDs(*tplList)
		if err != nil {
			fatal(err)
		}
		d, err := distByName(*dist)
		if err != nil {
			fatal(err)
		}
		if err := c.runLoad(templates, d, *n, *rps, *seed, *deadline, *policy); err != nil {
			fatal(err)
		}
	case *fleetSnap:
		var fl serve.FleetResponse
		if err := c.get("/v1/fleet", &fl); err != nil {
			fatal(err)
		}
		autoscaleState := "off"
		if fl.Autoscale {
			autoscaleState = "on"
		}
		fmt.Printf("fleet: router %s, autoscale %s, %d replicas\n",
			fl.Router, autoscaleState, len(fl.Replicas))
		fmt.Printf("%-4s %-9s %-6s %-6s %-20s %s\n",
			"id", "state", "alive", "queue", "templates", "staged")
		for _, r := range fl.Replicas {
			fmt.Printf("%-4d %-9s %-6v %-6d %-20s %s\n",
				r.ID, r.State, r.Alive, r.QueueDepth,
				formatIDs(r.Templates), formatIDs(r.StagedTemplates))
		}
	case *alerts:
		var al serve.AlertsResponse
		if err := c.get("/v1/alerts", &al); err != nil {
			fatal(err)
		}
		fmt.Printf("alerts: worst %s, %d classes\n", al.Worst, len(al.Alerts))
		fmt.Printf("%-12s %-8s %-10s %-10s %-14s %s\n",
			"class", "state", "burn-fast", "burn-slow", "windows", "since")
		for _, a := range al.Alerts {
			fmt.Printf("%-12s %-8s %-10.2f %-10.2f %-14s %.1fs\n",
				a.Class, a.State, a.BurnFast, a.BurnSlow,
				fmt.Sprintf("%.0fs/%.0fs", a.FastWindow, a.SlowWindow), a.Since)
		}
	case *stats:
		var st serve.Stats
		if err := c.get("/v1/stats", &st); err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		_ = enc.Encode(st)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

type client struct {
	base string
	http *http.Client
}

func (c *client) post(path string, req, resp interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return c.decode(path, r, resp)
}

func (c *client) get(path string, resp interface{}) error {
	r, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	return c.decode(path, r, resp)
}

func (c *client) del(path string, resp interface{}) error {
	req, err := http.NewRequest(http.MethodDelete, c.base+path, nil)
	if err != nil {
		return err
	}
	r, err := c.http.Do(req)
	if err != nil {
		return err
	}
	return c.decode(path, r, resp)
}

// decode reads the response, turning non-200s into errors built from the
// server's structured envelope ({"error":{"code","message","retryable"}}).
func (c *client) decode(path string, r *http.Response, resp interface{}) error {
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(r.Body, 4096))
		var env serve.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err == nil && env.Error != nil {
			retry := ""
			if env.Error.Retryable {
				retry = " (retryable)"
			}
			return fmt.Errorf("%s: %s [%s]%s", path, env.Error.Message, env.Error.Code, retry)
		}
		return fmt.Errorf("%s: %s: %s", path, r.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// runLoad fires an open-loop Poisson workload at the server and prints
// latency statistics.
func (c *client) runLoad(templates []uint64, dist workload.MaskDist, n int, rps float64, seed uint64, deadlineMS int64, policy string) error {
	reqs, err := workload.Generate(workload.TraceConfig{
		N: n, RPS: rps, Dist: dist, Templates: len(templates), ZipfS: 1.1, Seed: seed,
	})
	if err != nil {
		return err
	}
	var (
		mu        sync.Mutex
		total     obs.Dist
		queue     obs.Dist
		reusedSum float64
		errors    int
		wg        sync.WaitGroup
	)
	rng := tensor.NewRNG(seed ^ 0xC11E47)
	ctx := context.Background()
	start := time.Now()
	for _, r := range reqs {
		at := time.Duration(r.Arrival * float64(time.Second))
		if wait := at - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		r := r
		maskSeed := rng.Uint64()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp serve.EditResponse
			err := c.post("/v1/edits", serve.EditRequestAPI{
				TemplateID: templates[int(r.Template-1)%len(templates)],
				Prompt:     "load",
				Seed:       uint64(r.ID),
				Mask:       serve.MaskSpec{Type: "ratio", Ratio: r.MaskRatio, Seed: maskSeed},
				DeadlineMS: deadlineMS,
				Policy:     policy,
			}, &resp)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errors++
				return
			}
			total.Add(resp.TotalMS)
			queue.Add(resp.QueueMS)
			reusedSum += resp.ReusedBlockRatio
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("offered %.2f rps for %.1fs: %d ok, %d errors\n",
		rps, elapsed.Seconds(), total.Count(), errors)
	fmt.Printf("latency ms: %s\n", total.Summary())
	fmt.Printf("queue ms:   %s\n", queue.Summary())
	if policy != "" && policy != "off" && total.Count() > 0 {
		fmt.Printf("step policy %s: mean %.0f%% of block executions reused\n",
			policy, reusedSum/float64(total.Count())*100)
	}
	return nil
}

// formatIDs renders a replica's template-id list compactly ("-" when empty).
func formatIDs(ids []uint64) string {
	if len(ids) == 0 {
		return "-"
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatUint(id, 10)
	}
	return strings.Join(parts, ",")
}

func parseIDs(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad template id %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no template ids")
	}
	return out, nil
}

func distByName(name string) (workload.MaskDist, error) {
	for _, d := range workload.AllDists() {
		if d.Name == name {
			return d, nil
		}
	}
	return workload.MaskDist{}, fmt.Errorf("unknown distribution %q", name)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flashps-client: %v\n", err)
	os.Exit(1)
}
