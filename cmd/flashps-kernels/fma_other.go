//go:build !amd64

package main

// Off amd64 the kernel level is portable and no FMA ceiling is measured.

func fmaChainsZMM(n int) { panic("flashps-kernels: fmaChainsZMM off amd64") }

func fmaChainsYMM(n int) { panic("flashps-kernels: fmaChainsYMM off amd64") }
