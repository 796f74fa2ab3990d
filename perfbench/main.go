// Command perfbench is the repository benchmark. It generates seeded
// inputs as bytes, runs one workload against the public entry points of
// the rock packages, checks every output, and prints one JSON result as
// the last line of standard output.
//
//	bash perfbench/run.sh --workload dense-labels --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 a separate run on the same inputs records spans around every
// layer call and reports the per-layer metrics instead. README.md lists
// the workloads, the metrics, and which end-to-end metric each layer
// metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json. A per-layer metric also
// names the end-to-end metric it should move and the workload where its
// layer does most of its work.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the metrics a --trace 0 run reports, in BENCHMARK.json
// order. Each is defined on every workload; README.md gives the
// definition per workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_tail_ms", unit: "ms", better: "lower"},
	{name: "points_per_s", unit: "points/s", better: "higher"},
	{name: "fresh_s", unit: "s", better: "lower"},
	{name: "purity", unit: "fraction", better: "higher"},
	{name: "max_rss_mb", unit: "MiB", better: "lower"},
}

// perLayer are the metrics a --trace 1 run reports, in BENCHMARK.json
// order. A metric of a layer the workload never calls reads 0.
var perLayer = []metricDef{
	{"dataset.parse_s", "s", "lower", "setup_s", "sampled-baskets"},
	{"similarity.neighbors_s", "s", "lower", "op_p50_ms", "sampled-baskets"},
	{"similarity.neighbors_cpu_s", "s", "lower", "op_p50_ms", "sampled-baskets"},
	{"similarity.edges", "count", "lower", "op_p50_ms", "sampled-baskets"},
	{"linkage.build_s", "s", "lower", "op_p50_ms", "dense-labels"},
	{"linkage.entries", "count", "lower", "op_p50_ms", "dense-labels"},
	{"core.merge_s", "s", "lower", "op_p50_ms", "dense-labels"},
	{"core.merge_alloc_mb", "MiB", "lower", "op_p50_ms", "dense-labels"},
	{"core.merges", "count", "lower", "op_p50_ms", "dense-labels"},
	{"core.label_s", "s", "lower", "op_p50_ms", "sampled-baskets"},
	{"core.label_cpu_s", "s", "lower", "op_p50_ms", "sampled-baskets"},
	{"core.label_candidates", "count", "lower", "op_p50_ms", "sampled-baskets"},
	{"core.label_hit_ratio", "fraction", "higher", "purity", "sampled-baskets"},
	{"core.load_model_s", "s", "lower", "setup_s", "stream-drift"},
	{"core.assign_p50_ms", "ms", "lower", "op_p50_ms", "stream-drift"},
	{"core.assign_p99_ms", "ms", "lower", "op_tail_ms", "stream-drift"},
	{"serve.mean_batch", "points", "higher", "points_per_s", "stream-drift"},
	{"serve.coalesced_ratio", "fraction", "higher", "points_per_s", "stream-drift"},
	{"stream.handler_p50_ms", "ms", "lower", "op_p50_ms", "stream-drift"},
	{"stream.handler_p99_ms", "ms", "lower", "op_tail_ms", "stream-drift"},
	{"stream.refresh_s", "s", "lower", "fresh_s", "stream-drift"},
	{"stream.refresh_points", "count", "lower", "fresh_s", "stream-drift"},
	{"stream.detect_points", "count", "lower", "fresh_s", "stream-drift"},
	{"stream.fallbacks", "count", "lower", "fresh_s", "stream-drift"},
	{"stream.swap_pause_ms", "ms", "lower", "op_tail_ms", "stream-drift"},
	{"stream.readmitted", "count", "higher", "purity", "stream-drift"},
	{"trace.overhead_s", "s", "lower", "", "all"},
}

// runOpts is what every workload run is given: the input seed, how long
// to measure, and the tracer, which is nil unless --trace 1.
type runOpts struct {
	seed   int64
	window time.Duration
	tr     *tracer
}

// workloads maps each BENCHMARK.json workload to its full-size run.
var workloads = map[string]func(runOpts) (*report, error){
	"dense-labels":    func(o runOpts) (*report, error) { return runBatch(denseLabels(1000), o) },
	"sampled-baskets": func(o runOpts) (*report, error) { return runBatch(sampledBaskets(fullHubs), o) },
	"stream-drift":    func(o runOpts) (*report, error) { return runStream(fullStream, o) },
}

func main() {
	workload := flag.String("workload", "", "workload to run: dense-labels, sampled-baskets or stream-drift")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	if err := run(os.Stdout, *workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its provenance, its full report
// and, last, the result line. A traced run also writes its spans to
// .bench_build/spans-<workload>-<seed>.json.
func run(w io.Writer, name string, seed int64, seconds float64, trace int) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	o := runOpts{seed: seed, window: time.Duration(seconds * float64(time.Second))}
	if trace == 1 {
		o.tr = newTracer()
	}
	rep, err := wl(o)
	if err != nil {
		return err
	}
	res, err := rep.result(o.tr != nil)
	if err != nil {
		return err
	}
	if o.tr != nil {
		if err := o.tr.write(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", name, seed))); err != nil {
			return err
		}
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": provenance(name, seed, trace)}); err != nil {
		return err
	}
	line := map[string]any{"report": rep.metrics, "attempted": rep.attempted, "failed": rep.failed}
	if o.tr != nil {
		layers := map[string]map[string]string{}
		for _, d := range perLayer {
			layers[d.name] = map[string]string{"moves": d.moves, "mostly_on": d.on}
		}
		line["layers"] = layers
	}
	if err := enc.Encode(line); err != nil {
		return err
	}
	return enc.Encode(res)
}

// sample is one measured value and the number of observations behind it.
type sample struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report collects what a workload run measured and checked. Besides the
// BENCHMARK.json metrics it holds some under the names the workload's
// own terms give them (cluster_s, ingest_p99_ms, ...); those appear in
// the report line only.
type report struct {
	metrics   map[string]sample
	attempted int
	failed    int
	failures  []string
}

func newReport() *report { return &report{metrics: map[string]sample{}} }

// set records a metric measured from n observations.
func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = sample{Value: v, Unit: unit, Samples: n}
}

// check counts one checked operation, and a failure unless ok.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result selects the metrics the run reports: every end-to-end metric
// untraced, every per-layer metric traced.
func (r *report) result(traced bool) (resultLine, error) {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	if r.attempted == 0 {
		return out, fmt.Errorf("the run checked no operation")
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		s, ok := r.metrics[d.name]
		if !ok && !traced {
			return out, fmt.Errorf("the run did not measure %s", d.name)
		}
		if ok && s.Unit != d.unit {
			return out, fmt.Errorf("%s measured in %s, want %s", d.name, s.Unit, d.unit)
		}
		out.Metrics[d.name] = metricOut{Value: s.Value, Unit: d.unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest percentile of xs, at most the 99th, that has
// at least ten samples beyond it; with fewer than 20 samples no
// percentile above the median has, and tail is the median.
func tail(xs []float64) float64 {
	n := float64(len(xs))
	return quantile(xs, max(0.5, min(0.99, (n-10)/n)))
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMiB returns the process's peak resident set size; Linux reports
// it in KiB.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// provenance identifies the host, toolchain and source a result came
// from.
func provenance(workload string, seed int64, trace int) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"trace":         trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"numcpu":        runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        gitCommit(),
		"source_sha256": sourceDigest(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit when the working directory is a
// git repository, and reports "unknown" otherwise.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source file and go.mod under the working
// directory, so a result identifies the code it measured even in a
// checkout that is not a git repository.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
