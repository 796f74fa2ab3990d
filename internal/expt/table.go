// Package expt regenerates every table and figure of the paper's
// evaluation, plus the repo's own ablations, on the synthetic stand-in
// datasets. Each experiment is addressed by a stable id (E1..E8 for the
// paper's tables, A1..A6 for the ablations), produces a report with
// formatted tables and figure series, and is runnable through
// cmd/rockbench or the bench_test.go targets.
//
// Invariants: every experiment is deterministic under Options.Seed (the
// generators, sampling, and every engine are seed-driven); Options.Quick
// shrinks sweep sizes without changing their shape and is recorded in
// any emitted JSON. The four perf sweeps (BenchServe → BENCH_serve.json,
// BenchNeighbors → BENCH_neighbors.json, BenchStream →
// BENCH_stream.json, BenchZoo → BENCH_zoo.json) verify their outputs
// before recording timings and stamp the GOMAXPROCS and CPU count they
// were measured at; serve, stream and zoo also record the host. Per-phase
// timings of whole pipeline runs belong to the repository benchmark,
// perfbench, under --trace 1.
package expt

import (
	"fmt"
	"strings"
)

// FormatTable renders an aligned text table with a header row.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one curve of a figure: paired x/y values.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// FormatSeries renders figure series as aligned columns (x, then one
// column per series), assuming all series share the x grid of the first.
func FormatSeries(series []Series) string {
	if len(series) == 0 {
		return ""
	}
	headers := []string{"x"}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	var rows [][]string
	for i, x := range series[0].X {
		row := []string{trimFloat(x)}
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, trimFloat(s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	return FormatTable(headers, rows)
}

// trimFloat prints a float compactly (integers without decimals).
func trimFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
