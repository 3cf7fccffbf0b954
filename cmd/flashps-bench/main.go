// Command flashps-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	flashps-bench                         # run every experiment
//	flashps-bench -experiment fig12       # run one experiment
//	flashps-bench -list                   # list experiment ids
//	flashps-bench -quick                  # smaller workloads
//	flashps-bench -out images/            # write Fig 13 PNGs there
//
// Experiment ids follow the paper's artifact names: fig1, fig3, fig4left,
// fig4mid, fig4right, fig6, fig9, fig11, fig12, fig13, fig14, fig15,
// fig16left, fig16right, table1, table2, overhead, kvcache, coldcache.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"flashps/internal/experiments"
	"flashps/internal/tensor"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id to run (empty = all)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		quick      = flag.Bool("quick", false, "shrink workloads for a fast smoke run")
		outDir     = flag.String("out", "", "directory for image artifacts (fig13)")
		seed       = flag.Uint64("seed", 1, "random seed")
		par        = flag.Int("par", runtime.GOMAXPROCS(0), "kernel worker parallelism (1 = serial)")
	)
	flag.Parse()
	tensor.SetParallelism(*par)

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "flashps-bench: %v\n", err)
			os.Exit(1)
		}
	}
	opts := experiments.Options{Quick: *quick, OutDir: *outDir, Seed: *seed}

	run := func(name string) error {
		start := time.Now()
		tables, err := experiments.Run(name, opts)
		if err != nil {
			return err
		}
		for _, t := range tables {
			fmt.Println(t.Format())
		}
		fmt.Printf("[%s finished in %.1fs]\n\n", name, time.Since(start).Seconds())
		return nil
	}

	names := experiments.Names()
	if *experiment != "" {
		names = []string{*experiment}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "flashps-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}
