// Command rockbench regenerates the tables and figures of the paper's
// evaluation (and the repository's ablations and extensions) on the
// synthetic stand-in datasets. Run with no arguments for the full suite,
// or name experiment ids (E1..E8, A1..A6; -list prints them).
//
//	rockbench              # everything, paper-scale
//	rockbench -quick E6    # shrunken timing sweep
//	rockbench -list
//	rockbench -links       # serial-vs-parallel link sweep → BENCH_links.json
//	rockbench -merge       # map-vs-arena agglomeration sweep → BENCH_merge.json
//	rockbench -label       # pairwise-vs-indexed labeling sweep → BENCH_label.json
//	rockbench -assign      # frozen-model serving sweep → BENCH_assign.json
//	rockbench -serve       # HTTP serving sweep → BENCH_serve.json
//	rockbench -neighbors   # exact-vs-LSH neighbor sweep → BENCH_neighbors.json
//	rockbench -stream      # streaming ingestion sweep → BENCH_stream.json
//	rockbench -zoo         # algorithm-zoo shootout → BENCH_zoo.json
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
		quick  = flag.Bool("quick", false, "shrink dataset sizes and sweeps")
		seed   = flag.Int64("seed", 0, "base seed for all generators")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		out    = flag.String("out", "", "write reports to this file instead of stdout")
		links  = flag.Bool("links", false, "run the serial-vs-parallel link builder sweep and write BENCH_links.json (or -out)")
		merge  = flag.Bool("merge", false, "run the agglomeration engine sweep (map reference vs arena, sparse basket and dense labeled shapes) and write BENCH_merge.json (or -out)")
		label  = flag.Bool("label", false, "run the labeling sweep (pairwise reference vs indexed vs sharded) and write BENCH_label.json (or -out)")
		assign = flag.Bool("assign", false, "run the frozen-model serving sweep (pairwise reference vs Model.Assign/AssignBatch + save/load cost) and write BENCH_assign.json (or -out)")
		srv    = flag.Bool("serve", false, "run the HTTP serving sweep (concurrent load against an in-process rockserve stack) and write BENCH_serve.json (or -out)")
		nbrs   = flag.Bool("neighbors", false, "run the neighbor-phase sweep (exact index vs prototype LSH vs sort-based LSH pipeline) and write BENCH_neighbors.json (or -out)")
		strm   = flag.Bool("stream", false, "run the streaming-ingestion sweep (sustained ingest through a regime change with background refresh) and write BENCH_stream.json (or -out)")
		zoos   = flag.Bool("zoo", false, "run the algorithm-zoo shootout (every registered engine vs ROCK on the labeled/votes/mushroom workloads) and write BENCH_zoo.json (or -out)")
		long   = flag.Bool("long", false, "with -neighbors: add the million-point rows (10⁶ LSH neighbor run + chunked clustering end-to-end); minutes of runtime")
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
	if *links {
		runSweep(*out, "BENCH_links.json", sweepOpts, expt.BenchLinks)
		return
	}
	if *merge {
		runSweep(*out, "BENCH_merge.json", sweepOpts, expt.BenchMerge)
		return
	}
	if *label {
		runSweep(*out, "BENCH_label.json", sweepOpts, expt.BenchLabel)
		return
	}
	if *assign {
		runSweep(*out, "BENCH_assign.json", sweepOpts, expt.BenchAssign)
		return
	}
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
the repo's ablations (A1..A6) on the synthetic stand-in datasets, plus
the performance-trajectory records — one bench mode per record:

  -links   serial-vs-parallel link builder sweep   → BENCH_links.json
  -merge   agglomeration engine sweep              → BENCH_merge.json
           (map reference vs the serial arena engine, on sparse
           basket rows and the dense planted-label shape)
  -label   labeling-phase sweep                    → BENCH_label.json
           (pairwise reference vs inverted-index vs sharded workers)
  -assign  frozen-model serving sweep              → BENCH_assign.json
           (pairwise reference vs Model.Assign/AssignBatch, plus the
           model file's size and save/load cost)
  -serve   HTTP serving sweep                      → BENCH_serve.json
           (concurrent clients against an in-process rockserve stack:
           client-side p50/p95/p99 latency, throughput, and batching
           effectiveness at two worker and two concurrency settings)
  -neighbors  neighbor-phase sweep                 → BENCH_neighbors.json
           (exact inverted index vs prototype map-based LSH vs the
           sort-based sharded LSH pipeline on hub-heavy baskets, with
           measured edge recall; add -long for the million-point rows
           including an end-to-end chunked clustering run)
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

Flags:
  -quick   shrink dataset sizes and sweeps (recorded in the JSON)
  -long    unlock the 10⁶-point rows of -neighbors (minutes of runtime)
  -seed N  base seed for all generators (default 0)
  -list    list experiment ids and exit
  -out F   write reports (or the named sweep) to F instead of the default

Caveat for the BENCH_*.json sweeps: parallel speedups are only visible
when GOMAXPROCS exceeds one. On a single-CPU host the worker goroutines
serialize, so the recorded "parallel" columns show only the algorithmic
differences (array counting vs map inserts for links; inverted-index
counting vs pairwise similarity for labeling and model serving). Regenerate on a multi-core host to capture
the scaling curve; the current GOMAXPROCS is recorded in each file.
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
