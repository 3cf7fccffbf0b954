//go:build amd64

package main

// fmaChainsZMM runs n steps of fmaChains independent FMA chains, 16 lanes
// each (AVX-512F).
func fmaChainsZMM(n int)

// fmaChainsYMM runs n steps of fmaChains independent FMA chains, 8 lanes
// each (AVX2 and FMA).
func fmaChainsYMM(n int)
