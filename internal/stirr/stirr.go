// Package stirr implements the STIRR dynamical system of Gibson,
// Kleinberg and Raghavan (VLDB 1998) for clustering categorical data, and
// a revised, convergence-guaranteed iteration in the spirit of Zhang, Fu,
// Cai and Heng ("Clustering Categorical Data", ICDE 2000), who showed
// that STIRR's non-linear systems need not converge and repaired them.
//
// STIRR views each attribute value as a node carrying a weight. One
// iteration propagates weights through every tuple: the new weight of a
// node is the sum over tuples containing it of a combiner ⊕ applied to
// the weights of the other values in the tuple, followed by
// re-normalization. Maintaining a second, orthogonalized weight vector
// (a "non-principal basin") yields a signed partition of the attribute
// values — and through them of the records — into two clusters.
//
// The Revised option replaces the non-linear per-attribute scheme with a
// single linear operator iteration (sum combiner, global L2
// normalization): a power iteration on the non-negative value
// co-occurrence matrix, which converges for any non-degenerate start by
// Perron–Frobenius — the convergence guarantee that is the ICDE 2000
// paper's point. Experiment A5 (`rockbench A5`) runs both against ROCK.
package stirr

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/rockclust/rock/internal/dataset"
)

// Combiner selects how the weights of a tuple's other values merge into a
// node's contribution.
type Combiner int

const (
	// Sum is the linear combiner Σ w_j — the analytically tractable
	// choice, and the one the revised system builds on.
	Sum Combiner = iota
	// Product is Π w_j, STIRR's original emphasis.
	Product
)

// Config parameterizes a STIRR run.
type Config struct {
	Combiner Combiner
	// Basins is the number of weight vectors maintained; vector 0 is the
	// principal basin, later ones are kept orthogonal to the earlier ones
	// (Gram–Schmidt) and carry the cluster structure. Default 2.
	Basins int
	// Iters bounds the iterations (default 100).
	Iters int
	// Tol stops iteration when the max weight change drops below it
	// (default 1e-9).
	Tol float64
	// Revised selects the convergence-guaranteed linear iteration.
	Revised bool
	Seed    int64
}

func (c Config) withDefaults() Config {
	if c.Basins == 0 {
		c.Basins = 2
	}
	if c.Iters == 0 {
		c.Iters = 100
	}
	if c.Tol == 0 {
		c.Tol = 1e-9
	}
	return c
}

// Node identifies one attribute value.
type Node struct {
	Attr  int
	Value string
}

// Result carries the converged weight vectors.
type Result struct {
	Nodes     []Node
	Index     map[Node]int
	Weights   [][]float64 // [basin][node]
	Iters     int
	Converged bool

	attrNodes [][]int // node ids per attribute, for per-attribute scaling
}

// Run executes the dynamical system over categorical records with the
// given attribute count. Missing values contribute no nodes.
func Run(records []dataset.Record, nattrs int, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if nattrs <= 0 {
		return nil, fmt.Errorf("stirr: nattrs = %d", nattrs)
	}

	// Build the node table and per-record node lists.
	res := &Result{Index: make(map[Node]int)}
	tuples := make([][]int, len(records))
	for ri, rec := range records {
		for a := 0; a < nattrs && a < len(rec); a++ {
			v := rec[a]
			if v == "" || v == dataset.Missing {
				continue
			}
			nd := Node{a, v}
			id, ok := res.Index[nd]
			if !ok {
				id = len(res.Nodes)
				res.Index[nd] = id
				res.Nodes = append(res.Nodes, nd)
			}
			tuples[ri] = append(tuples[ri], id)
		}
	}
	nn := len(res.Nodes)
	if nn == 0 {
		res.Converged = true
		return res, nil
	}
	res.attrNodes = make([][]int, nattrs)
	for id, nd := range res.Nodes {
		res.attrNodes[nd.Attr] = append(res.attrNodes[nd.Attr], id)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	res.Weights = make([][]float64, cfg.Basins)
	for b := range res.Weights {
		w := make([]float64, nn)
		if b == 0 {
			for i := range w {
				w[i] = 1
			}
		} else {
			for i := range w {
				w[i] = rng.NormFloat64()
			}
		}
		res.Weights[b] = w
	}
	normalize(res, cfg)

	comb := cfg.Combiner
	var shift float64
	if cfg.Revised {
		comb = Sum // the revised system is the linear iteration
		// Spectral shift: iterate M + λ0·I instead of M, where λ0 bounds
		// the operator norm (max row sum). The shift keeps every
		// eigenvector and the eigenvalue ordering while making all
		// shifted eigenvalues non-negative, so the power iteration
		// provably settles — without it, two-attribute data makes the
		// value co-occurrence graph bipartite (a ±λ-symmetric spectrum)
		// and the iteration oscillates forever, one of the convergence
		// failures the ICDE 2000 revision addresses.
		rowSum := make([]float64, nn)
		for _, tuple := range tuples {
			for _, v := range tuple {
				rowSum[v] += float64(len(tuple) - 1)
			}
		}
		for _, s := range rowSum {
			if s > shift {
				shift = s
			}
		}
	}
	next := make([]float64, nn)
	var prev [][]float64
	for it := 0; it < cfg.Iters; it++ {
		for b := range res.Weights {
			w := res.Weights[b]
			for i := range next {
				next[i] = shift * w[i]
			}
			for _, tuple := range tuples {
				for i, v := range tuple {
					next[v] += combine(comb, w, tuple, i)
				}
			}
			copy(w, next)
		}
		normalize(res, cfg)
		// Scale-free convergence test: compare normalized vectors (up to
		// sign, since power iteration may alternate sign on negative
		// eigenvalues).
		if prev != nil && maxDeltaUpToSign(res.Weights, prev) < cfg.Tol {
			res.Iters = it + 1
			res.Converged = true
			return res, nil
		}
		prev = snapshot(res.Weights, prev)
	}
	res.Iters = cfg.Iters
	return res, nil
}

// snapshot copies weights into dst, allocating on first use.
func snapshot(weights [][]float64, dst [][]float64) [][]float64 {
	if dst == nil {
		dst = make([][]float64, len(weights))
		for b := range weights {
			dst[b] = make([]float64, len(weights[b]))
		}
	}
	for b := range weights {
		copy(dst[b], weights[b])
	}
	return dst
}

// maxDeltaUpToSign measures the movement of each basin, allowing a global
// sign flip per basin.
func maxDeltaUpToSign(cur, prev [][]float64) float64 {
	d := 0.0
	for b := range cur {
		direct, flipped := 0.0, 0.0
		for i, w := range cur[b] {
			if x := math.Abs(w - prev[b][i]); x > direct {
				direct = x
			}
			if x := math.Abs(w + prev[b][i]); x > flipped {
				flipped = x
			}
		}
		if flipped < direct {
			direct = flipped
		}
		if direct > d {
			d = direct
		}
	}
	return d
}

// combine merges the weights of tuple's values other than position skip.
func combine(c Combiner, w []float64, tuple []int, skip int) float64 {
	switch c {
	case Product:
		p := 1.0
		for j, v := range tuple {
			if j != skip {
				p *= w[v]
			}
		}
		return p
	default: // Sum
		s := 0.0
		for j, v := range tuple {
			if j != skip {
				s += w[v]
			}
		}
		return s
	}
}

// normalize rescales weight vectors after an update. Non-principal basins
// are first orthogonalized against earlier ones (Gram–Schmidt), so basin b
// tracks the (b+1)-th dominant direction. The classic STIRR scheme then
// normalizes each attribute's value weights to unit norm independently —
// one of the non-linearities behind its convergence failures; the revised
// system uses a single global L2 normalization, turning the whole
// iteration into a power method on the value co-occurrence operator.
func normalize(res *Result, cfg Config) {
	for b := range res.Weights {
		w := res.Weights[b]
		for p := 0; p < b; p++ {
			dot := 0.0
			for i := range w {
				dot += w[i] * res.Weights[p][i]
			}
			for i := range w {
				w[i] -= dot * res.Weights[p][i]
			}
		}
		if cfg.Revised {
			scale(w, allNodes(len(w)))
			continue
		}
		for _, ids := range res.attrNodes {
			scale(w, ids)
		}
	}
}

// allNodes returns the identity index list 0..n-1.
func allNodes(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// scale normalizes the selected entries of w to unit L2 norm in place
// (no-op on zero segments).
func scale(w []float64, ids []int) {
	norm := 0.0
	for _, i := range ids {
		norm += w[i] * w[i]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return
	}
	for _, i := range ids {
		w[i] /= norm
	}
}

// ClusterRecords splits records in two by the sign of their total weight
// under the given basin (the standard STIRR read-out): cluster 0 for
// non-negative scores, 1 for negative.
func ClusterRecords(res *Result, records []dataset.Record, basin int) []int {
	assign := make([]int, len(records))
	if basin >= len(res.Weights) {
		return assign
	}
	w := res.Weights[basin]
	for ri, rec := range records {
		score := 0.0
		for a, v := range rec {
			if v == "" || v == dataset.Missing {
				continue
			}
			if id, ok := res.Index[Node{a, v}]; ok {
				score += w[id]
			}
		}
		if score < 0 {
			assign[ri] = 1
		}
	}
	return assign
}
