package expt

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func TestIDsStableAndTitled(t *testing.T) {
	ids := IDs()
	if len(ids) != 14 {
		t.Fatalf("have %d experiments, want 14: %v", len(ids), ids)
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Fatalf("experiment %s has no title", id)
		}
	}
	// Canonical order: ablations then evaluation tables (lexicographic).
	if ids[0] != "A1" || ids[len(ids)-1] != "E8" {
		t.Fatalf("order = %v", ids)
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("E99", &buf, Options{Quick: true}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// Every experiment must run in Quick mode and emit a non-trivial report
// containing its id and at least one table or series.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := Run(id, &buf, Options{Quick: true, Seed: 1}); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "== "+id+":") {
				t.Fatalf("report missing header: %q", out[:min(80, len(out))])
			}
			if !strings.Contains(out, "---") {
				t.Fatal("report contains no table or series")
			}
			if !strings.Contains(out, "note:") {
				t.Fatal("report contains no notes")
			}
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"a", "long-header"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Aligned: all rows same width.
	w := len(lines[0])
	for _, l := range lines[1:] {
		if len(strings.TrimRight(l, " ")) > w {
			t.Fatalf("misaligned table:\n%s", out)
		}
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Fatal("missing separator row")
	}
}

func TestFormatSeries(t *testing.T) {
	s := []Series{
		{Name: "y1", X: []float64{1, 2}, Y: []float64{0.5, 1}},
		{Name: "y2", X: []float64{1, 2}, Y: []float64{3, 4}},
	}
	out := FormatSeries(s)
	if !strings.Contains(out, "y1") || !strings.Contains(out, "y2") {
		t.Fatalf("missing series names:\n%s", out)
	}
	if !strings.Contains(out, "0.5") || !strings.Contains(out, "4") {
		t.Fatalf("missing values:\n%s", out)
	}
	if FormatSeries(nil) != "" {
		t.Fatal("empty series should format to empty string")
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(3) != "3" {
		t.Fatalf("trimFloat(3) = %q", trimFloat(3))
	}
	if trimFloat(0.25) != "0.25" {
		t.Fatalf("trimFloat(0.25) = %q", trimFloat(0.25))
	}
}

func TestCompositionTable(t *testing.T) {
	labels := []string{"a", "a", "b", "b", "a"}
	assign := []int{0, 0, 1, 1, -1}
	out := compositionTable(labels, assign)
	if !strings.Contains(out, "outliers") {
		t.Fatalf("missing outliers row:\n%s", out)
	}
	if !strings.Contains(out, "cluster") || !strings.Contains(out, "size") {
		t.Fatalf("missing headers:\n%s", out)
	}
}

// The quality experiments must reproduce the paper's shape, not just run:
// ROCK beats the traditional baseline on votes, and the mushroom run
// yields uneven near-pure clusters while the baseline mixes classes.
func TestPaperShapesQuick(t *testing.T) {
	t.Run("votes", func(t *testing.T) {
		t.Parallel()
		rockRep, err := registry["E2"].run(Options{Quick: true, Seed: 0})
		if err != nil {
			t.Fatal(err)
		}
		tradRep, err := registry["E1"].run(Options{Quick: true, Seed: 0})
		if err != nil {
			t.Fatal(err)
		}
		re := extractError(t, rockRep)
		te := extractError(t, tradRep)
		if re >= te {
			t.Fatalf("ROCK error %.3f not below traditional %.3f", re, te)
		}
	})
	t.Run("mushroom", func(t *testing.T) {
		t.Parallel()
		rockRep, err := registry["E4"].run(Options{Quick: true, Seed: 0})
		if err != nil {
			t.Fatal(err)
		}
		tradRep, err := registry["E3"].run(Options{Quick: true, Seed: 0})
		if err != nil {
			t.Fatal(err)
		}
		re := extractError(t, rockRep)
		te := extractError(t, tradRep)
		if re > 0.1 {
			t.Fatalf("ROCK mushroom error %.3f too high", re)
		}
		if te < 2*re {
			t.Fatalf("traditional error %.3f not well above ROCK %.3f", te, re)
		}
	})
}

// extractError pulls "error e=0.1234" from a report's notes.
func extractError(t *testing.T, rep *Report) float64 {
	t.Helper()
	for _, n := range rep.Notes {
		i := strings.Index(n, "error e=")
		if i < 0 {
			continue
		}
		s := n[i+len("error e="):]
		end := 0
		for end < len(s) && (s[end] == '.' || (s[end] >= '0' && s[end] <= '9')) {
			end++
		}
		v, err := strconv.ParseFloat(s[:end], 64)
		if err != nil {
			t.Fatalf("unparseable error note %q: %v", n, err)
		}
		return v
	}
	t.Fatalf("no error note in %v", rep.Notes)
	return 0
}

func TestBenchNeighborsQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := BenchNeighbors(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	var rep NeighborBenchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if host := reportHost(t, buf.Bytes()); !rep.Quick || rep.Long || host == "" || len(rep.Rows) != 4 {
		t.Fatalf("unexpected report shape: quick=%v long=%v host=%q rows=%d", rep.Quick, rep.Long, host, len(rep.Rows))
	}
	thetas := map[float64]int{}
	for _, row := range rep.Rows {
		thetas[row.Theta]++
		if row.ExactSec <= 0 || row.LSHSec <= 0 || row.ExactEdges <= 0 {
			t.Fatalf("missing timing or exact edges in row %+v", row)
		}
		if row.CandidatePairs < row.VerifiedEdges || row.VerifiedEdges <= 0 {
			t.Fatalf("implausible ledger in row %+v", row)
		}
		switch row.Theta {
		case 0.45:
			if !row.RecallMeasured || row.Recall < 0.9 {
				t.Fatalf("row n=%d θ=0.45: recall %.4f (measured=%v), want measured ≥ 0.9", row.N, row.Recall, row.RecallMeasured)
			}
		case 0.3:
			// θ sits at the 96/32 band threshold, so recall is well
			// below 1; the row records it rather than meeting a floor.
			if !row.RecallMeasured || row.Recall <= 0 || row.Recall > 1 {
				t.Fatalf("row n=%d θ=0.3: recall %.4f (measured=%v), want measured in (0,1]", row.N, row.Recall, row.RecallMeasured)
			}
		default:
			t.Fatalf("unexpected θ in row %+v", row)
		}
	}
	if thetas[0.45] != 2 || thetas[0.3] != 2 {
		t.Fatalf("rows per θ = %v, want 2 at θ=0.45 and 2 at θ=0.3", thetas)
	}
	if rep.Chunked != nil {
		t.Fatal("chunked row present without -long")
	}
}

// TestBenchServeStreamQuick: the serving and streaming sweeps record the
// host they ran on, and no stream setting loses a parked outlier.
func TestBenchServeStreamQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := BenchServe(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	var srv ServeBenchReport
	if err := json.Unmarshal(buf.Bytes(), &srv); err != nil {
		t.Fatal(err)
	}
	if host := reportHost(t, buf.Bytes()); !srv.Quick || host == "" || len(srv.Rows) != 4 {
		t.Fatalf("unexpected serve report shape: quick=%v host=%q rows=%d", srv.Quick, host, len(srv.Rows))
	}

	buf.Reset()
	if err := BenchStream(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	var strm StreamBenchReport
	if err := json.Unmarshal(buf.Bytes(), &strm); err != nil {
		t.Fatal(err)
	}
	if host := reportHost(t, buf.Bytes()); !strm.Quick || host == "" || len(strm.Summaries) != 4 {
		t.Fatalf("unexpected stream report shape: quick=%v host=%q summaries=%d", strm.Quick, host, len(strm.Summaries))
	}
	for _, s := range strm.Summaries {
		if s.PointsLost != 0 {
			t.Fatalf("workers=%d mode=%s: points_lost = %d, want 0", s.Workers, s.Mode, s.PointsLost)
		}
	}
}

// reportHost reads the "host" field of an encoded BENCH report.
func reportHost(t *testing.T, report []byte) string {
	t.Helper()
	var h struct {
		Host string `json:"host"`
	}
	if err := json.Unmarshal(report, &h); err != nil {
		t.Fatal(err)
	}
	return h.Host
}

func TestBenchZooQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := BenchZoo(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	var rep ZooBenchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	wantRows := 3 * 7 // three workloads, seven engines
	if !rep.Quick || rep.Host == "" || len(rep.Rows) != wantRows {
		t.Fatalf("unexpected report shape: quick=%v host=%q rows=%d (want %d)", rep.Quick, rep.Host, len(rep.Rows), wantRows)
	}
	for _, row := range rep.Rows {
		if row.Err != "" {
			t.Fatalf("row %s/%s errored: %s", row.Dataset, row.Engine, row.Err)
		}
		if row.Sec < 0 || row.KFound < 1 || row.N < 1 {
			t.Fatalf("implausible row %+v", row)
		}
		if row.Purity < 1/float64(row.N) || row.Purity > 1 || row.NMI < 0 || row.NMI > 1+1e-9 {
			t.Fatalf("out-of-range metrics in row %+v", row)
		}
	}
	// The shootout must be a real contest: on the two-class votes
	// workload most engines clearly beat the 61.4% majority-class
	// baseline. (Not all — centroid-linkage hierarchical collapsing to
	// the majority there is the paper's own motivating failure.)
	winners := 0
	for _, row := range rep.Rows {
		if row.Dataset == "votes" && row.Purity >= 0.8 {
			winners++
		}
	}
	if winners < 4 {
		t.Fatalf("only %d engines beat purity 0.8 on votes — shootout implausibly weak", winners)
	}
}
