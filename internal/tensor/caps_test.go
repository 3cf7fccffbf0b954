package tensor

import (
	"strings"
	"testing"
)

func TestDetectLevel(t *testing.T) {
	const (
		fma, osxsave = 1 << 12, 1 << 27
		avx2         = 1 << 5
		f, dq, bw    = 1 << 16, 1 << 17, 1 << 30
		vl           = 1 << 31
	)
	spr := cpuWords{maxLeaf: 0x20, ecx1: fma | osxsave | 1<<28, ebx7: avx2 | f | dq | bw | vl, xcr0: 0xE7}
	with := func(edit func(*cpuWords)) cpuWords { w := spr; edit(&w); return w }
	for _, c := range []struct {
		name string
		w    cpuWords
		want kernelLevel
	}{
		{"every feature and state", spr, levelAVX512},
		{"AVX512F alone of the AVX-512 features", with(func(w *cpuWords) { w.ebx7 = avx2 | f }), levelAVX512},
		{"no AVX512F, its sub-features set", with(func(w *cpuWords) { w.ebx7 &^= f }), levelAVX2},
		{"AVX512F, OS saves YMM only", with(func(w *cpuWords) { w.xcr0 = 0x07 }), levelAVX2},
		{"AVX512F, OS saves no Hi16_ZMM", with(func(w *cpuWords) { w.xcr0 = 0x67 }), levelAVX2},
		{"AVX512F, OS saves no opmask", with(func(w *cpuWords) { w.xcr0 = 0xC7 }), levelAVX2},
		{"Haswell", cpuWords{maxLeaf: 0xD, ecx1: fma | osxsave, ebx7: avx2, xcr0: 0x07}, levelAVX2},
		{"AVX2 without FMA", with(func(w *cpuWords) { w.ecx1 &^= fma }), levelPortable},
		{"FMA without AVX2", with(func(w *cpuWords) { w.ebx7 &^= avx2 }), levelPortable},
		{"OS without XSAVE", with(func(w *cpuWords) { w.ecx1 &^= osxsave; w.xcr0 = 0 }), levelPortable},
		{"OS saves SSE state only", with(func(w *cpuWords) { w.xcr0 = 0x03 }), levelPortable},
		{"no leaf 7", with(func(w *cpuWords) { w.maxLeaf = 6 }), levelPortable},
		{"nothing", cpuWords{}, levelPortable},
	} {
		if got := detectLevel(c.w); got != c.want {
			t.Errorf("%s (%+v): level %v, want %v", c.name, c.w, got, c.want)
		}
	}
}

func TestCapLevel(t *testing.T) {
	for _, native := range []kernelLevel{levelPortable, levelAVX2, levelAVX512} {
		if got, err := capLevel(native, "", ""); err != nil || got != native {
			t.Errorf("no cap on %v: %v, %v", native, got, err)
		}
		for l, name := range levelNames {
			got, err := capLevel(native, name, "")
			if want := min(native, kernelLevel(l)); err != nil || got != want {
				t.Errorf("cap %s on %v: %v, %v; want %v", name, native, got, err, want)
			}
		}
		// The switch the cap replaced stops the start, whatever the cap
		// says, and names what to set instead.
		for _, cap := range []string{"", "portable", "avx512"} {
			_, err := capLevel(native, cap, "1")
			if err == nil || !strings.Contains(err.Error(), levelEnv+"=portable") {
				t.Errorf("%s=1 with cap %q on %v: %v", retiredEnv, cap, native, err)
			}
		}
		// A value that is not a level is an error naming the accepted ones,
		// never the host's own level.
		for _, bad := range []string{"1", "AVX2", "avx-512", "native", "none", " avx2"} {
			_, err := capLevel(native, bad, "")
			if err == nil {
				t.Errorf("cap %q on %v accepted", bad, native)
				continue
			}
			for _, name := range levelNames {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("cap %q: error %q does not name %s", bad, err, name)
				}
			}
		}
	}
}

func TestKernelLevelNamesTheLevel(t *testing.T) {
	if got := KernelLevel(); got != levelNames[level] {
		t.Fatalf("KernelLevel() = %q at level %d", got, level)
	}
	if HasAVX2() != (level >= levelAVX2) {
		t.Fatalf("HasAVX2() = %v at level %v", HasAVX2(), level)
	}
	t.Logf("kernel level %s (host %s)", level, nativeLevel())
}
