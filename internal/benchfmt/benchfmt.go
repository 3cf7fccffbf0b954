// Package benchfmt defines the shared machine-readable schemas the
// FlashPS benchmark CLIs emit (BENCH_kernels.json, BENCH_diffusion.json and
// flashps-whatif's predictions), plus the run metadata block that makes a
// number comparable across machines and commits: git revision, Go
// runtime shape, CPU model, and the kernel level the numbers were produced at.
package benchfmt

import (
	"os"
	"os/exec"
	"runtime"
	"strings"

	"flashps/internal/tensor"
)

// Meta identifies the environment a benchmark ran in.
type Meta struct {
	GitRevision string `json:"git_revision,omitempty"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	CPUModel    string `json:"cpu_model,omitempty"`
	// AVX2 says the level was avx2 or above; Kernels names it
	// (tensor.KernelLevel: "portable", "avx2", "avx512").
	AVX2    bool   `json:"avx2"`
	Kernels string `json:"kernels"`
}

// CollectMeta gathers the run metadata. Fields that cannot be determined
// (no git binary, no /proc/cpuinfo) are left empty rather than failing:
// metadata must never break a benchmark run.
func CollectMeta() Meta {
	return Meta{
		GitRevision: gitRevision(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		AVX2:        tensor.HasAVX2(),
		Kernels:     tensor.KernelLevel(),
	}
}

func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	rev := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil &&
		len(strings.TrimSpace(string(dirty))) > 0 {
		rev += "-dirty"
	}
	return rev
}

// cpuModel reads the CPU model name from /proc/cpuinfo (Linux); other
// platforms report empty.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// ServeResult is flashps-whatif's answer: the serving figures the
// calibrated simulator predicts for a hypothetical workload.
type ServeResult struct {
	Meta Meta `json:"meta"`
	// Predicted marks results computed by the calibrated simulator.
	Predicted bool `json:"predicted,omitempty"`
	// Model names the cost model behind the result (the fitted
	// coefficients' engine profile).
	Model string `json:"model,omitempty"`

	Requests   int     `json:"requests"`
	Workers    int     `json:"workers"`
	OfferedRPS float64 `json:"offered_rps"`
	ElapsedS   float64 `json:"elapsed_s"`

	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	MeanMS        float64 `json:"mean_ms"`
	QueueP99MS    float64 `json:"queue_p99_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	GoodputRPS    float64 `json:"goodput_rps"`
	SLOAttainment float64 `json:"slo_attainment"`
	StepsTotal    float64 `json:"steps_total"`
	StepsPerSec   float64 `json:"steps_per_sec"`
	MeanBatchSize float64 `json:"mean_batch_size"`
}

// DiffusionResult is the BENCH_diffusion.json schema, written by
// flashps-diffbench: the Fig 1 edit swept across the adaptive step-caching
// policy presets (DESIGN.md §11). Every policy row times the same
// mask-aware cached edit; Speedup is relative to the "off" row (the PR3
// baseline path), and SSIM compares the policy's output against that
// uncached output.
type DiffusionResult struct {
	Meta Meta `json:"meta"`
	// Model names the engine configuration the sweep ran on.
	Model string `json:"model"`
	// MaskRatio is the rasterized edit-mask ratio (Fig 1 uses ≈0.2).
	MaskRatio float64 `json:"mask_ratio"`
	// Iters is the number of timed edits each row averages over.
	Iters int `json:"iters"`
	// FullMS is the uncached full-compute (EditFull) reference latency.
	FullMS float64 `json:"full_ms"`
	// Policies holds one row per swept policy, "off" first.
	Policies []DiffusionPolicyResult `json:"policies"`
}

// DiffusionPolicyResult is one row of the policy sweep.
type DiffusionPolicyResult struct {
	Policy string  `json:"policy"`
	MeanMS float64 `json:"mean_ms"`
	// Speedup is the "off" row's MeanMS divided by this row's (1.0 for
	// the off row itself).
	Speedup float64 `json:"speedup"`
	// SSIM compares this row's output image against the uncached ("off")
	// edit of the same request; 1.0 for the off row.
	SSIM float64 `json:"ssim"`
	// SSIMBudget is the preset's declared quality floor (0 for off);
	// SSIM ≥ SSIMBudget is the gate TestPolicyPresetQualityGate enforces.
	SSIMBudget float64 `json:"ssim_budget,omitempty"`
	// ReusedBlockRatio is the fraction of block executions served from
	// cached residuals.
	ReusedBlockRatio float64 `json:"reused_block_ratio,omitempty"`
}
