package tensor

import (
	"fmt"
	"os"
	"strings"
)

// kernelLevel orders the kernel sets a process can run: each level runs
// every op the level below it has, some of them on wider registers.
type kernelLevel int

const (
	// levelPortable is the Go reference code, the only level off amd64.
	levelPortable kernelLevel = iota
	// levelAVX2 is the 8-lane AVX2+FMA assembly.
	levelAVX2
	// levelAVX512 moves the GEMM micro-kernels, exp and GeLU to 16 lanes
	// (AVX-512F); every other op stays on its AVX2 kernel.
	levelAVX512
)

var levelNames = [...]string{"portable", "avx2", "avx512"}

func (l kernelLevel) String() string { return levelNames[l] }

// levelEnv caps the kernel level of the process: one of levelNames.
// Unset or empty means the highest level the host supports; a cap above
// that changes nothing.
const levelEnv = "FLASHPS_KERNELS"

// retiredEnv is the switch levelEnv replaced (any value meant portable). A
// process that still finds it set does not start: ignored, it would run the
// host's own level for an operator who asked for the portable one.
const retiredEnv = "FLASHPS_NO_AVX2"

// level is the process's kernel level, resolved once at start: the decision
// must not change mid-run, or mixed scalar/vector rounding would break
// reproducibility between calls (the two vector levels agree bit for bit;
// portable differs from them in GEMM's last bits — see matmul.go).
var level = startLevel()

func startLevel() kernelLevel {
	l, err := capLevel(nativeLevel(), os.Getenv(levelEnv), os.Getenv(retiredEnv))
	if err != nil {
		// No caller to return to at package initialisation, and running at
		// a level the operator did not ask for is worse than not running.
		fmt.Fprintln(os.Stderr, "tensor:", err)
		os.Exit(2)
	}
	return l
}

// capLevel applies the cap variable's value to the host's level; retired
// is retiredEnv's.
func capLevel(native kernelLevel, cap, retired string) (kernelLevel, error) {
	if retired != "" {
		return 0, fmt.Errorf("%s is no longer read: set %s=%s instead", retiredEnv, levelEnv, levelPortable)
	}
	if cap == "" {
		return native, nil
	}
	for l, name := range levelNames {
		if cap == name {
			return min(native, kernelLevel(l)), nil
		}
	}
	return 0, fmt.Errorf("%s=%q: want one of %s, or unset for the host's own level",
		levelEnv, cap, strings.Join(levelNames[:], ", "))
}

// cpuWords is what level detection reads of the CPU: the highest basic
// CPUID leaf, CPUID.1:ECX, CPUID.(7,0):EBX, and XCR0's low word (0 when the
// OS has not enabled XSAVE, so XGETBV may not be executed).
type cpuWords struct {
	maxLeaf, ecx1, ebx7, xcr0 uint32
}

// detectLevel is the level a CPU and OS described by w can run. AVX2 needs
// FMA, AVX2 and OS-saved YMM state; AVX-512 needs that, AVX512F — the ZMM
// kernels use nothing of VL, BW or DQ — and OS-saved opmask and ZMM state.
func detectLevel(w cpuWords) kernelLevel {
	const (
		fma, osxsave  = 1 << 12, 1 << 27 // CPUID.1:ECX
		avx2, avx512f = 1 << 5, 1 << 16  // CPUID.(7,0):EBX
		ymmState      = 0x06             // XCR0: SSE, AVX
		zmmState      = 0xE6             // … and opmask, ZMM_Hi256, Hi16_ZMM
	)
	if w.maxLeaf < 7 || w.ecx1&fma == 0 || w.ecx1&osxsave == 0 ||
		w.xcr0&ymmState != ymmState || w.ebx7&avx2 == 0 {
		return levelPortable
	}
	if w.ebx7&avx512f == 0 || w.xcr0&zmmState != zmmState {
		return levelAVX2
	}
	return levelAVX512
}

// HasAVX2 reports whether the AVX2+FMA assembly kernels are active in this
// process: the level is avx2 or above. Benchmarks record it in their run
// metadata so results are comparable.
func HasAVX2() bool { return level >= levelAVX2 }

// KernelLevel names the process's kernel level: "portable", "avx2" or
// "avx512" (the host's highest, or the FLASHPS_KERNELS cap below it).
func KernelLevel() string { return level.String() }
