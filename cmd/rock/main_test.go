package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/rockclust/rock"
)

// TestRoundTrip drives the CLI's full "cluster once, serve forever" loop
// the way a user would: cluster a basket file with -save, inspect the
// frozen file with -load, then label a fresh file of queries with
// -load -assign -members — asserting the assignment summary and that
// the -members output buckets the queries with their own kind.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines []string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	baskets := write("baskets.txt", []string{
		"# two cleanly separated basket templates",
		"milk bread butter",
		"milk bread jam",
		"milk butter jam",
		"bread butter jam",
		"beer chips salsa",
		"beer chips dip",
		"beer salsa dip",
		"chips salsa dip",
	})
	// Queries: two per template plus one of unseen items (an outlier).
	queries := write("queries.txt", []string{
		"milk bread honey",
		"bread jam honey",
		"beer chips guac",
		"chips dip guac",
		"quinoa kale sprouts",
	})
	modelPath := filepath.Join(dir, "model.rock")

	// rock -input baskets.txt -format basket -theta 0.3 -k 2 -save model.rock
	// LabelFraction 1 freezes every member, so each query's θ-neighbor is
	// guaranteed to be in the model rather than subject to the sampling.
	cfg := rock.Config{Theta: 0.3, K: 2, Seed: 1, LabelFraction: 1, MaxLabelPoints: 10}
	var clusterOut bytes.Buffer
	if err := run(&clusterOut, baskets, "basket", cfg, modelPath, -1, -1, true, false, false, 0, 40); err != nil {
		t.Fatalf("cluster+save: %v", err)
	}
	if !strings.Contains(clusterOut.String(), "points=8 clusters=2 outliers=0") {
		t.Fatalf("cluster summary:\n%s", clusterOut.String())
	}

	// rock -load model.rock — the inspection path.
	var inspectOut bytes.Buffer
	if err := runModel(&inspectOut, modelPath, false, "", "", 1, -1, -1, true, false, false, 40); err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, want := range []string{"cluster 0: frozen-size=", "cluster 1: frozen-size="} {
		if !strings.Contains(inspectOut.String(), want) {
			t.Fatalf("inspect output missing %q:\n%s", want, inspectOut.String())
		}
	}

	// rock -load model.rock -assign -input queries.txt -format basket -members
	var assignOut bytes.Buffer
	if err := runModel(&assignOut, modelPath, true, queries, "basket", 1, -1, -1, true, false, true, 40); err != nil {
		t.Fatalf("load+assign: %v", err)
	}
	if !strings.Contains(assignOut.String(), "assigned 5 points: 4 matched a cluster, 1 outliers") {
		t.Fatalf("assignment summary:\n%s", assignOut.String())
	}

	// The -members listing must bucket queries with their own template:
	// #0/#1 (dairy) share a cluster, #2/#3 (snacks) share the other, and
	// #4 (unseen items) appears under neither.
	buckets := parseMembers(t, assignOut.String())
	if len(buckets) != 2 {
		t.Fatalf("parsed %d member buckets, want 2:\n%s", len(buckets), assignOut.String())
	}
	var dairy, snacks []string
	for _, members := range buckets {
		switch {
		case contains(members, "#0"):
			dairy = members
		case contains(members, "#2"):
			snacks = members
		}
	}
	if fmt.Sprint(dairy) != "[#0 #1]" {
		t.Fatalf("dairy queries bucketed as %v, want [#0 #1]", dairy)
	}
	if fmt.Sprint(snacks) != "[#2 #3]" {
		t.Fatalf("snack queries bucketed as %v, want [#2 #3]", snacks)
	}
}

// TestStoppedEarlyOnStatsLine: the two basket templates share no item,
// so their link graph has two components. At -k 1 the merge runs out of
// cross links and the stats line says so; at -k 2 it reaches K and
// prints nothing extra.
func TestStoppedEarlyOnStatsLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baskets.txt")
	lines := "milk bread butter\nmilk bread jam\nmilk butter jam\nbread butter jam\n" +
		"beer chips salsa\nbeer chips dip\nbeer salsa dip\nchips salsa dip\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		var out bytes.Buffer
		if err := run(&out, path, "basket", rock.Config{Theta: 0.3, K: k, Seed: 1}, "", -1, -1, true, false, false, 0, 40); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		stats, _, _ := strings.Cut(out.String(), "\n")
		if want := k == 1; strings.HasSuffix(stats, " stopped-early=true") != want || !strings.HasPrefix(stats, "points=8 clusters=2 ") {
			t.Fatalf("k=%d: stats line %q, want clusters=2 and stopped-early printed=%v", k, stats, want)
		}
	}
}

// parseMembers reads the `cluster N: assigned=…` sections of the -members
// output into per-cluster member-name lists.
func parseMembers(t *testing.T, out string) map[string][]string {
	t.Helper()
	header := regexp.MustCompile(`^cluster (\d+): assigned=`)
	buckets := map[string][]string{}
	current := ""
	for _, line := range strings.Split(out, "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			current = m[1]
			continue
		}
		if strings.HasPrefix(line, "  ") && current != "" {
			buckets[current] = append(buckets[current], strings.TrimSpace(line))
			continue
		}
		current = ""
	}
	for id, members := range buckets {
		if len(members) == 0 {
			delete(buckets, id)
		}
	}
	return buckets
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
