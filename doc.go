// Package rock implements ROCK (RObust Clustering using linKs), the
// classic agglomerative clustering algorithm for categorical and
// market-basket data by Guha, Rastogi and Shim, together with the
// substrates a practitioner needs around it: transaction and categorical
// record data models with CSV/basket IO, similarity measures and
// θ-neighbor computation, link tables, Chernoff-bound sampling and
// out-of-sample labeling, frozen servable models with a persistent
// binary format, outlier handling, the QROCK connected-components
// variant, evaluation metrics (clustering accuracy, ARI, NMI), reference
// baselines (centroid/average/single/complete hierarchical clustering
// and k-modes), the STIRR dynamical system with its
// convergence-guaranteed revision, and deterministic synthetic data
// generators mirroring the paper's evaluation datasets.
//
// # Quick start
//
//	d, err := rock.ReadBasket(file, rock.BasketOptions{})
//	if err != nil { ... }
//	res, err := rock.Cluster(d.Trans, rock.Config{Theta: 0.5, K: 3})
//	if err != nil { ... }
//	for ci, members := range res.Clusters { ... }
//
// The algorithm: two transactions are neighbors when their Jaccard
// similarity reaches the threshold θ; link(p,q) counts their common
// neighbors; clusters are merged greedily by the goodness measure
// g(Ci,Cj) = link[Ci,Cj] / ((n_i+n_j)^(1+2f(θ)) − n_i^(1+2f(θ)) −
// n_j^(1+2f(θ))) until K clusters remain or no cross links exist.
// Config.Goodness selects that measure (GoodnessROCK, the zero value) or
// one of the two ablations it is compared with, GoodnessLinkCount and
// GoodnessLinksPerPair. For datasets too large to cluster wholesale, set
// Config.SampleSize: a uniform sample is clustered and the remaining
// points are assigned in a labeling pass, exactly as the paper
// prescribes.
//
// # Performance
//
// Each heavy phase has one engine. θ-neighbors, link computation and
// labeling parallelize under Config.Workers (0 means GOMAXPROCS); merging
// runs on a serial, allocation-free arena. Every optimized engine
// produces output byte-identical to its reference, kept in test code, at
// every worker count, enforced by randomized oracle tests under the race
// detector. Workers claim rows or candidates 64 at a time, so a phase of
// one chunk runs on the calling goroutine. ARCHITECTURE.md is the
// authoritative description of the machinery (the CSR link table, the
// arena merge engine, the labeling index, the oracle discipline).
// cmd/rockbench regenerates every table and figure of the paper's
// evaluation plus the serving, neighbor, streaming and algorithm-zoo
// BENCH_*.json records; the perfbench module times whole pipeline runs
// phase by phase.
//
// # Serving
//
// A clustering run can be frozen into a Model: an immutable,
// goroutine-safe snapshot of the labeling phase that persists to a
// versioned, checksummed binary file (Model.Save / LoadModel) and serves
// Assign / AssignBatch / AssignDataset queries in any later process,
// bit-identically to the pipeline's labeling — "cluster once, serve
// forever". See Freeze, FreezeDataset, and the Model examples; the file
// format is documented in ARCHITECTURE.md.
//
// See README.md for the tour and benchmark tables.
package rock
