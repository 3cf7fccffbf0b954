package tensor

// linkPad is text and nothing else: with its call in init, three 32-byte
// function slots. benchmark/ normalises every
// timing by a host meter whose scalar GEMM loop (benchmark/host.go,
// main.(*beater).gemm) runs up to 1.3× faster or slower depending on
// whether the linker puts it at an address ≡ 0 or ≡ 32 (mod 64), and the
// amount of text linked ahead of the benchmark's main decides that. This
// function keeps the loop where the previous commit's binary had it, so
// that the two commits' normalised metrics compare (`make bench-pair`
// prints both addresses and refuses a pair whose idle beats differ).
// Delete it once the meter no longer depends on its placement (ROADMAP
// item 1).
//
//go:noinline
func linkPad() (a, b, c, d uint64) {
	return 0x0101010101010101, 0x0202020202020202, 0x0303030303030303, 0x0404040404040404
}
