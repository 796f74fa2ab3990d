package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// tiny runs every workload at a size a unit test affords, with the full
// workloads' parameters otherwise.
var tiny = map[string]func(runOpts) (*report, error){
	"dense-labels": func(o runOpts) (*report, error) { return runBatch(denseLabels(200), o) },
	"sampled-baskets": func(o runOpts) (*report, error) {
		return runBatch(sampledBaskets(hubShape{baskets: 3000, templates: 30, templateItems: 15, basketItems: 12, hubs: 15, hubRate: 0.15, sample: 600, k: 30}), o)
	},
	"stream-drift": func(o runOpts) (*report, error) {
		return runStream(streamShape{train: 300, regimes: 3, requests: 64, batch: 64, clients: 2, probe: 32, templates: 4, width: 12, size: 8}, o)
	},
}

// exactCounts are the per-layer counts that must repeat exactly across
// runs of one seed.
var exactCounts = []string{"similarity.edges", "linkage.entries", "core.merges", "core.label_candidates", "core.label_hit_ratio", "stream.detect_points"}

// mayBeZero are the per-layer metrics that can read 0 even on the
// workload where their layer does its work.
var mayBeZero = []string{"stream.fallbacks", "stream.readmitted", "trace.overhead_s"}

func TestTracedRunsRepeatExactCounts(t *testing.T) {
	for name, runTiny := range tiny {
		t.Run(name, func(t *testing.T) {
			var first *report
			for i := 0; i < 2; i++ {
				rep, err := runTiny(runOpts{seed: 7, window: time.Millisecond, tr: newTracer()})
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 {
					t.Fatalf("%d of %d checks failed: %s", rep.failed, rep.attempted, strings.Join(rep.failures, "; "))
				}
				res, err := rep.result(true)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range perLayer {
					if d.on == name && !slices.Contains(mayBeZero, d.name) && res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s reads %g on %s, where its layer does its work", d.name, res.Metrics[d.name].Value, name)
					}
				}
				if first == nil {
					first = rep
					continue
				}
				for _, m := range exactCounts {
					if a, b := first.metrics[m].Value, rep.metrics[m].Value; a != b {
						t.Errorf("%s: %g, then %g on the same seed", m, a, b)
					}
				}
			}
		})
	}
}

func TestUntracedRunsEmitEveryEndToEndMetric(t *testing.T) {
	for name, runTiny := range tiny {
		t.Run(name, func(t *testing.T) {
			rep, err := runTiny(runOpts{seed: 3, window: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			res, err := rep.result(false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%d of %d checks failed: %s", res.Failed, res.Attempted, strings.Join(rep.failures, "; "))
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; v <= 0 {
					t.Errorf("%s reads %g", d.name, v)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program emits the same lists, in the same order and units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		got  []def
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s lists %d metrics, the program %d", c.key, len(c.got), len(c.want))
		}
		for i, w := range c.want {
			if g := c.got[i]; g != (def{w.name, w.unit, w.better}) {
				t.Errorf("%s[%d] is %+v, the program emits %s in %s, %s is better", c.key, i, g, w.name, w.unit, w.better)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil || tiny[w.Name] == nil {
			t.Errorf("workload %s has no run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program runs %d", names, len(workloads))
	}
}
