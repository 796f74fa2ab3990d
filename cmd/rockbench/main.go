// Command rockbench regenerates the tables and figures of the paper's
// evaluation (and the repository's ablations and extensions) on the
// synthetic stand-in datasets. Run with no arguments for the full suite,
// or name experiment ids (E1..E8, A1..A5; -list prints them).
//
//	rockbench              # everything, paper-scale
//	rockbench -quick E6    # shrunken timing sweep
//	rockbench -list
//	rockbench -serve       # HTTP serving sweep → BENCH_serve.json
//	rockbench -neighbors   # exact neighbor-phase scaling sweep → BENCH_neighbors.json
//	rockbench -stream      # streaming ingestion sweep → BENCH_stream.json
//	rockbench -zoo         # algorithm-zoo shootout → BENCH_zoo.json
//
// Per-phase timings of whole pipeline runs (θ-neighbors, links, merge,
// labeling, model load and assign) come from the repository benchmark,
// perfbench, run with --trace 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/rockclust/rock/internal/expt"
)

func main() {
	var (
		quick = flag.Bool("quick", false, "shrink dataset sizes and sweeps")
		seed  = flag.Int64("seed", 0, "base seed for all generators")
		list  = flag.Bool("list", false, "list experiment ids and exit")
		out   = flag.String("out", "", "write reports to this file instead of stdout")
		srv   = flag.Bool("serve", false, "run the HTTP serving sweep (concurrent load against an in-process rockserve stack) and write BENCH_serve.json (or -out)")
		nbrs  = flag.Bool("neighbors", false, "run the neighbor-phase scaling sweep (the exact θ-query index at θ=0.45 and θ=0.3) and write BENCH_neighbors.json (or -out)")
		strm  = flag.Bool("stream", false, "run the streaming-ingestion sweep (sustained ingest through a regime change with background refresh) and write BENCH_stream.json (or -out)")
		zoos  = flag.Bool("zoo", false, "run the algorithm-zoo shootout (every registered engine vs ROCK on the labeled/votes/mushroom workloads) and write BENCH_zoo.json (or -out)")
		long  = flag.Bool("long", false, "with -neighbors: add n=3×10⁵ at both θ, a 10⁶ neighbor row and a 10⁶ chunked clustering run; minutes of runtime, fits 8 GB")
	)
	flag.Usage = usage
	flag.Parse()

	if *list {
		for _, id := range expt.IDs() {
			fmt.Printf("%-4s %s\n", id, expt.Title(id))
		}
		return
	}

	sweepOpts := expt.Options{Quick: *quick, Seed: *seed, Long: *long}
	if *srv {
		runSweep(*out, "BENCH_serve.json", sweepOpts, expt.BenchServe)
		return
	}
	if *nbrs {
		runSweep(*out, "BENCH_neighbors.json", sweepOpts, expt.BenchNeighbors)
		return
	}
	if *strm {
		runSweep(*out, "BENCH_stream.json", sweepOpts, expt.BenchStream)
		return
	}
	if *zoos {
		runSweep(*out, "BENCH_zoo.json", sweepOpts, expt.BenchZoo)
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rockbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	opts := expt.Options{Quick: *quick, Seed: *seed}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = expt.IDs()
	}
	for _, id := range ids {
		if err := expt.Run(id, w, opts); err != nil {
			fmt.Fprintln(os.Stderr, "rockbench:", err)
			os.Exit(1)
		}
	}
}

// usage explains what each flag regenerates — in particular which
// BENCH_*.json perf record belongs to which sweep — instead of the bare
// flag dump flag.PrintDefaults would produce.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, `Usage: rockbench [flags] [experiment ids...]

Regenerates the tables and figures of the paper's evaluation (E1..E8) and
the repo's ablations (A1..A5) on the synthetic stand-in datasets, plus
the performance-trajectory records — one bench mode per record:

  -serve   HTTP serving sweep                      → BENCH_serve.json
           (concurrent clients against an in-process rockserve stack:
           client-side p50/p95/p99 latency, throughput, and batching
           effectiveness at two worker and two concurrency settings)
  -neighbors  neighbor-phase scaling sweep         → BENCH_neighbors.json
           (the exact θ-query index on hub-heavy baskets at θ=0.45 and
           θ=0.3 for n = 10⁴, 3×10⁴, 10⁵, each time the median of 3
           runs; add -long for n=3×10⁵ at both θ, a 10⁶ row at θ=0.45,
           and an end-to-end 10⁶ chunked clustering run)
  -stream  streaming-ingestion sweep               → BENCH_stream.json
           (sustained Ingest throughput through a regime change: stable,
           drift-until-refreshed, and post-refresh phases, plus the
           refresh ledger — detection delay, re-cluster cost, the atomic
           swap pause, post-swap admission accuracy, and the outlier
           conservation check points_lost=0 — at two worker settings,
           each in both refresh modes: full re-cluster of the retained
           sample vs incremental re-cluster seeded with the serving
           model's clusters)
  -zoo     algorithm-zoo shootout                  → BENCH_zoo.json
           (every registered engine — COOLCAT, Squeezer, k-histograms,
           k-modes, hierarchical, STIRR, and ROCK through its adapter —
           scored purity/NMI/ARI against ground truth, with wall-clock
           per Fit, on the labeled, votes and mushroom workloads)

With no flags and no ids, every experiment runs at paper scale to stdout.
Per-phase timings of whole pipeline runs (θ-neighbors, links, merge,
labeling, model load and assign) come from the repository benchmark:
bash perfbench/run.sh --workload <name> --trace 1 (see perfbench/README.md).

Flags:
  -quick   shrink dataset sizes and sweeps (recorded in the JSON)
  -long    add the 3×10⁵ and 10⁶ rows of -neighbors (minutes of runtime)
  -seed N  base seed for all generators (default 0)
  -list    list experiment ids and exit
  -out F   write reports (or the named sweep) to F instead of the default

Caveat for the BENCH_*.json sweeps: each file records the host, the
GOMAXPROCS and the CPU count it was measured at. The workers axes of
-serve and -stream only differentiate when GOMAXPROCS exceeds one; at
GOMAXPROCS=1 the worker goroutines serialize and latencies include
queueing on the one CPU.
`)
}

// runSweep writes one JSON perf sweep to out (or the default path).
func runSweep(out, def string, opts expt.Options, sweep func(w io.Writer, opts expt.Options) error) {
	path := out
	if path == "" {
		path = def
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rockbench:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := sweep(f, opts); err != nil {
		fmt.Fprintln(os.Stderr, "rockbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "rockbench: wrote", path)
}
