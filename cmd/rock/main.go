// Command rock clusters a categorical dataset with ROCK and prints the
// clusters. Input is either CSV (categorical records, one row each) or
// the market-basket text format (one transaction per line).
//
// Examples:
//
//	rock -input votes.csv -label-col 0 -theta 0.73 -k 2
//	rock -input baskets.txt -format basket -theta 0.5 -k 8 -sample 2000
//
// A clustering can be frozen into a servable model file and queried
// later without re-clustering ("cluster once, serve forever"):
//
//	rock -input baskets.txt -format basket -theta 0.5 -k 8 -save model.rock
//	rock -load model.rock                                  # inspect the model
//	rock -load model.rock -assign -input new.txt -format basket
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/rockclust/rock"
)

func main() {
	var (
		input    = flag.String("input", "", "input file (default stdin)")
		format   = flag.String("format", "csv", "input format: csv or basket")
		theta    = flag.Float64("theta", 0.5, "neighbor threshold θ in [0,1]")
		k        = flag.Int("k", 2, "target number of clusters")
		sample   = flag.Int("sample", 0, "cluster a uniform sample of this size and label the rest (0 = all)")
		minNbr   = flag.Int("min-neighbors", 0, "prune points with fewer neighbors")
		weedAt   = flag.Float64("weed-at", 0, "weed tiny clusters when this fraction of clusters remains (0 = off)")
		weedMax  = flag.Int("weed-max", 2, "largest cluster size weeded")
		seed     = flag.Int64("seed", 1, "random seed (sampling, labeling)")
		labelCol = flag.Int("label-col", -1, "csv: ground-truth label column (enables quality metrics)")
		nameCol  = flag.Int("name-col", -1, "csv: record name column")
		noHeader = flag.Bool("no-header", false, "csv: no header row")
		firstLab = flag.Bool("first-token-label", false, "basket: first token of each line is the label")
		members  = flag.Bool("members", false, "print cluster members")
		topItems = flag.Int("top-items", 0, "print this many top items per cluster")
		workers  = flag.Int("workers", 0, "goroutines for the neighbor, link, labeling, and assign phases (0 = GOMAXPROCS; the merge is serial); results are identical for every value")
		maxRows  = flag.Int("max-rows", 40, "clusters shown in the summary table")
		saveTo   = flag.String("save", "", "after clustering, freeze a servable model to this file")
		loadFrom = flag.String("load", "", "load a frozen model instead of clustering (with -assign: label the input against it)")
		assign   = flag.Bool("assign", false, "with -load: assign every input point through the model and print the distribution")
	)
	flag.Parse()

	cfg := rock.Config{
		Theta:        *theta,
		K:            *k,
		SampleSize:   *sample,
		MinNeighbors: *minNbr,
		WeedAt:       *weedAt,
		WeedMaxSize:  *weedMax,
		Seed:         *seed,
		Workers:      *workers,
	}
	var err error
	switch {
	case *workers < 0:
		err = fmt.Errorf("-workers %d is negative", *workers)
	case *assign && *loadFrom == "":
		err = fmt.Errorf("-assign needs -load: there is no model to assign through")
	case *loadFrom != "" && *saveTo != "":
		err = fmt.Errorf("-save conflicts with -load: a loaded model is already frozen (clustering, which -save would freeze, does not run)")
	case *loadFrom != "":
		err = runModel(os.Stdout, *loadFrom, *assign, *input, *format, *workers, *labelCol, *nameCol, !*noHeader, *firstLab, *members, *maxRows)
	default:
		err = run(os.Stdout, *input, *format, cfg, *saveTo, *labelCol, *nameCol, !*noHeader, *firstLab, *members, *topItems, *maxRows)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rock:", err)
		os.Exit(1)
	}
}

// readInput parses the input dataset per the -format flag.
func readInput(input, format string, labelCol, nameCol int, header, firstLab bool) (*rock.Dataset, error) {
	var in io.Reader = os.Stdin
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	switch format {
	case "csv":
		opts := rock.DefaultCSVOptions()
		opts.HasHeader = header
		opts.LabelCol = labelCol
		opts.NameCol = nameCol
		return rock.ReadCSV(in, opts)
	case "basket":
		return rock.ReadBasket(in, rock.BasketOptions{FirstTokenIsLabel: firstLab, Comment: '#'})
	default:
		return nil, fmt.Errorf("unknown format %q (want csv or basket)", format)
	}
}

// runModel is the -load path: print the model to w, and with -assign
// label the input dataset through it. It takes the writer (rather than
// printing to stdout) so the round-trip test can capture the output.
func runModel(w io.Writer, path string, assign bool, input, format string, workers, labelCol, nameCol int, header, firstLab, members bool, maxRows int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	m, err := rock.LoadModel(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, m)
	if !assign {
		sizes := m.ClusterSizes()
		for ci, sz := range sizes {
			if ci >= maxRows {
				fmt.Fprintf(w, "... %d more clusters\n", len(sizes)-maxRows)
				break
			}
			fmt.Fprintf(w, "cluster %d: frozen-size=%d\n", ci, sz)
		}
		return nil
	}

	d, err := readInput(input, format, labelCol, nameCol, header, firstLab)
	if err != nil {
		return err
	}
	assigned, err := m.AssignDataset(d, workers)
	if err != nil {
		return err
	}
	byCluster := make([][]int, m.K())
	outliers := 0
	for p, ci := range assigned {
		if ci < 0 {
			outliers++
		} else {
			byCluster[ci] = append(byCluster[ci], p)
		}
	}
	fmt.Fprintf(w, "assigned %d points: %d matched a cluster, %d outliers\n",
		len(assigned), len(assigned)-outliers, outliers)
	for ci, ms := range byCluster {
		if ci >= maxRows {
			fmt.Fprintf(w, "... %d more clusters\n", m.K()-maxRows)
			break
		}
		fmt.Fprintf(w, "cluster %d: assigned=%d\n", ci, len(ms))
		if members {
			for _, p := range ms {
				name := fmt.Sprintf("#%d", p)
				if d.Names != nil {
					name = d.Names[p]
				}
				fmt.Fprintf(w, "  %s\n", name)
			}
		}
	}
	if d.Labels != nil {
		ev := rock.Evaluate(assigned, d.Labels)
		fmt.Fprintf(w, "accuracy r=%.4f error e=%.4f ace=%d ARI=%.4f NMI=%.4f\n",
			ev.Accuracy, ev.Error, ev.AbsoluteError, ev.ARI, ev.NMI)
	}
	return nil
}

// run is the clustering path: read, cluster, optionally freeze to
// saveTo, and print the summary to w.
func run(w io.Writer, input, format string, cfg rock.Config, saveTo string, labelCol, nameCol int, header, firstLab, members bool, topItems, maxRows int) error {
	d, err := readInput(input, format, labelCol, nameCol, header, firstLab)
	if err != nil {
		return err
	}

	res, err := rock.ClusterDataset(d, cfg)
	if err != nil {
		return err
	}

	if saveTo != "" {
		m, err := rock.FreezeDataset(d, res, cfg)
		if err != nil {
			return err
		}
		f, err := os.Create(saveTo)
		if err != nil {
			return err
		}
		if err := m.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rock: froze %s to %s\n", m, saveTo)
	}

	st := res.Stats
	fmt.Fprintf(w, "points=%d clusters=%d outliers=%d merges=%d m_a=%.1f link-pairs=%d",
		d.Len(), res.K(), len(res.Outliers), st.Merges, st.AvgNeighbors, st.LinkPairs)
	if st.StoppedEarly {
		// No cross links were left at more than -k clusters: each cluster
		// is a whole component of the link graph.
		fmt.Fprint(w, " stopped-early=true")
	}
	fmt.Fprintln(w)
	for ci, ms := range res.Clusters {
		if ci >= maxRows {
			fmt.Fprintf(w, "... %d more clusters\n", res.K()-maxRows)
			break
		}
		fmt.Fprintf(w, "cluster %d: size=%d", ci, len(ms))
		if d.Labels != nil {
			counts := map[string]int{}
			for _, p := range ms {
				counts[d.Labels[p]]++
			}
			best, bestN := "", 0
			for l, n := range counts {
				if n > bestN || (n == bestN && l < best) {
					best, bestN = l, n
				}
			}
			fmt.Fprintf(w, " majority=%s purity=%.3f", best, float64(bestN)/float64(len(ms)))
		}
		fmt.Fprintln(w)
		if topItems > 0 {
			h := rock.BuildHistogram(d.Trans, ms)
			fmt.Fprintf(w, "  top items:")
			for _, ic := range h.Top(topItems) {
				fmt.Fprintf(w, " %s(%.0f%%)", d.Vocab.Name(ic.Item), 100*h.Support(ic.Item))
			}
			fmt.Fprintln(w)
		}
		if members {
			for _, p := range ms {
				name := fmt.Sprintf("#%d", p)
				if d.Names != nil {
					name = d.Names[p]
				}
				fmt.Fprintf(w, "  %s\n", name)
			}
		}
	}
	if d.Labels != nil {
		ev := rock.Evaluate(res.Assign, d.Labels)
		fmt.Fprintf(w, "accuracy r=%.4f error e=%.4f ace=%d ARI=%.4f NMI=%.4f\n",
			ev.Accuracy, ev.Error, ev.AbsoluteError, ev.ARI, ev.NMI)
	}
	return nil
}
