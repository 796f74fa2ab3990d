package expt

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/metrics"
)

// cpuNote pins the CPU context a benchmark ran under. Every BENCH JSON
// carries it: parallel and latency numbers are meaningless without
// knowing how many CPUs the workers actually had.
func cpuNote() string {
	return fmt.Sprintf("measured at GOMAXPROCS=%d on a host with %d CPUs (runtime.NumCPU).",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// hostName names the machine a bench ran on: OS, architecture, and the
// CPU model from /proc/cpuinfo ("unknown" where that file is absent).
func hostName() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s/%s, %s", runtime.GOOS, runtime.GOARCH, model)
}

// compositionTable renders the classic cluster-composition table of the
// paper's quality experiments: one row per cluster with its size and
// per-class member counts, plus an outliers row when any point is
// unassigned. Clusters are ordered by size descending for readability.
func compositionTable(labels []string, assign []int) string {
	classes, counts := metrics.ContingencyTable(assign, labels)
	k := 0
	for _, a := range assign {
		if a+1 > k {
			k = a + 1
		}
	}
	type row struct {
		id   int
		size int
		per  []int
	}
	rows := make([]row, 0, k)
	for ci := 0; ci < k; ci++ {
		r := row{id: ci, per: counts[ci]}
		for _, c := range counts[ci] {
			r.size += c
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].size != rows[j].size {
			return rows[i].size > rows[j].size
		}
		return rows[i].id < rows[j].id
	})

	outliers := make([]int, len(classes))
	nOut := 0
	for ri := k; ri < len(counts); ri++ {
		for j, c := range counts[ri] {
			outliers[j] += c
			nOut += c
		}
	}

	headers := append([]string{"cluster", "size"}, classes...)
	var cells [][]string
	for _, r := range rows {
		line := []string{fmt.Sprintf("%d", r.id), fmt.Sprintf("%d", r.size)}
		for _, c := range r.per {
			line = append(line, fmt.Sprintf("%d", c))
		}
		cells = append(cells, line)
	}
	if nOut > 0 {
		line := []string{"outliers", fmt.Sprintf("%d", nOut)}
		for _, c := range outliers {
			line = append(line, fmt.Sprintf("%d", c))
		}
		cells = append(cells, line)
	}
	return FormatTable(headers, cells)
}

// evalNote summarizes an evaluation in one line.
func evalNote(name string, ev metrics.Eval) string {
	return fmt.Sprintf("%s: accuracy r=%.4f, error e=%.4f, ace=%d, ARI=%.4f, NMI=%.4f, clustered=%d, outliers=%d",
		name, ev.Accuracy, ev.Error, ev.AbsoluteError, ev.ARI, ev.NMI, ev.Clustered, ev.Outliers)
}

// linkStatsNote renders one ROCK run's pipeline ledger in the shared
// form of the E-report notes: neighbor densities (the paper's m_a/m_m),
// the CSR link table volume (link-entries is the directed entry count
// the link builder materialized, 2× the undirected pairs), and the
// outlier/merge counters.
func linkStatsNote(st core.Stats) string {
	return fmt.Sprintf("stats: m_a=%.1f m_m=%d link-pairs=%d link-entries=%d pruned=%d weeded=%d merges=%d",
		st.AvgNeighbors, st.MaxNeighbors, st.LinkPairs, st.LinkEntries, st.Pruned, st.Weeded, st.Merges)
}

// timeIt measures the wall-clock duration of f in seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// medianOf returns the median of k timed runs of f, in seconds.
func medianOf(k int, f func()) float64 {
	secs := make([]float64, k)
	for i := range secs {
		secs[i] = timeIt(f)
	}
	sort.Float64s(secs)
	return secs[k/2]
}

// subsetPrefix takes the first n records of a dataset (generators
// interleave classes, so prefixes are representative).
func subsetPrefix(d *dataset.Dataset, n int) *dataset.Dataset {
	if n >= d.Len() {
		return d
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return d.Subset(idx)
}
