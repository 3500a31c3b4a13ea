package p2psize

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating its data at a reduced scale and reporting the
// measured message overhead and accuracy as custom metrics), plus
// ablation benchmarks for the design choices called out in DESIGN.md §4.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkFig05 -benchtime=1x

import (
	"math"
	"testing"

	"p2psize/internal/aggregation"
	"p2psize/internal/churn"
	"p2psize/internal/cyclon"
	"p2psize/internal/experiments"
	"p2psize/internal/graph"
	"p2psize/internal/hopssampling"
	"p2psize/internal/overlay"
	"p2psize/internal/parallel"
	"p2psize/internal/pushsum"
	"p2psize/internal/samplecollide"
	"p2psize/internal/sim"
	"p2psize/internal/xrand"
)

// benchParams runs the experiments at bench scale: large enough that the
// paper's shapes hold (the S&C estimator needs l << N), small enough for
// go test -bench to finish in minutes.
func benchParams() experiments.Params {
	p := experiments.Scaled(10) // N100k=10000, N1M=100000
	p.SCRuns = 20
	p.SCRuns1M = 5
	p.HopsRuns = 20
	p.HopsRuns1M = 5
	p.Fig18Runs = 20
	p.TableRuns = 10
	p.AggHorizon = 1000
	p.TraceHorizon = 300 // 30 monitor samples per trace experiment
	return p
}

// benchFigure runs one registered experiment per iteration and reports
// the mean |error|% of its last series when derivable.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	p := benchParams()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		fig, err := experiments.Run(id, p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(fig.Series) > 0 {
			reportQuality(b, fig)
		}
	}
}

func reportQuality(b *testing.B, fig *experiments.Figure) {
	// Quality figures have truth normalized to 100; report the mean
	// |Y-100| of the first series' second half (past any convergence
	// transient). Other figures (sizes, latencies, view health) have no
	// comparable scalar, so nothing is reported for them.
	if fig.YLabel != "Quality %" {
		return
	}
	s := fig.Series[0]
	if s.Len() == 0 {
		return
	}
	sum := 0.0
	n := 0
	for _, y := range s.Y[s.Len()/2:] {
		if !math.IsNaN(y) {
			sum += math.Abs(y - 100)
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "err%")
	}
}

// BenchmarkSuite runs the whole registered experiment set through the
// parallel suite runner at bench scale and writes BENCH_results.json —
// the same schema cmd/figures emits as REPORT.json (per-experiment wall
// time, message counts, series checksums) — so the perf trajectory is
// tracked PR-over-PR; CI uploads the file as an artifact.
func BenchmarkSuite(b *testing.B) {
	p := benchParams()
	// Schedule from the previous run's measured wall times when its
	// report is still on disk (static costHint fallback otherwise);
	// scheduling never changes the report's deterministic fields.
	p.CostModel = experiments.LoadCostModel("BENCH_results.json")
	for i := 0; i < b.N; i++ {
		report, _, err := experiments.RunSuite(nil, p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if err := report.WriteFile("BENCH_results.json"); err != nil {
				b.Fatal(err)
			}
			var msgs uint64
			for _, e := range report.Experiments {
				msgs += e.Messages
			}
			b.ReportMetric(float64(msgs), "msgs-total")
		}
	}
}

func BenchmarkFig01SampleCollide100k(b *testing.B) { benchFigure(b, "fig01") }
func BenchmarkFig02SampleCollide1M(b *testing.B)   { benchFigure(b, "fig02") }
func BenchmarkFig03Hops100k(b *testing.B)          { benchFigure(b, "fig03") }
func BenchmarkFig04Hops1M(b *testing.B)            { benchFigure(b, "fig04") }
func BenchmarkFig05Agg100k(b *testing.B)           { benchFigure(b, "fig05") }
func BenchmarkFig06Agg1M(b *testing.B)             { benchFigure(b, "fig06") }
func BenchmarkFig07ScaleFreeDegree(b *testing.B)   { benchFigure(b, "fig07") }
func BenchmarkFig08ScaleFreeCompare(b *testing.B)  { benchFigure(b, "fig08") }
func BenchmarkFig09SCCatastrophic(b *testing.B)    { benchFigure(b, "fig09") }
func BenchmarkFig10SCGrowing(b *testing.B)         { benchFigure(b, "fig10") }
func BenchmarkFig11SCShrinking(b *testing.B)       { benchFigure(b, "fig11") }
func BenchmarkFig12HopsCatastrophic(b *testing.B)  { benchFigure(b, "fig12") }
func BenchmarkFig13HopsGrowing(b *testing.B)       { benchFigure(b, "fig13") }
func BenchmarkFig14HopsShrinking(b *testing.B)     { benchFigure(b, "fig14") }
func BenchmarkFig15AggCatastrophic(b *testing.B)   { benchFigure(b, "fig15") }
func BenchmarkFig16AggGrowing(b *testing.B)        { benchFigure(b, "fig16") }
func BenchmarkFig17AggShrinking(b *testing.B)      { benchFigure(b, "fig17") }
func BenchmarkFig18SCl10(b *testing.B)             { benchFigure(b, "fig18") }

// BenchmarkTableIOverhead regenerates Table I and reports the measured
// per-estimation overheads as custom metrics.
func BenchmarkTableIOverhead(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		rows, _, err := experiments.TableIRows(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				switch r.Algorithm + "/" + r.Heuristic {
				case "Sample&Collide (l=200)/oneShot":
					b.ReportMetric(r.OverheadPerEstimate, "sc-msgs")
				case "HopsSampling/last10runs":
					b.ReportMetric(r.OverheadPerEstimate, "hops-msgs")
				case "Aggregation/50 rounds":
					b.ReportMetric(r.OverheadPerEstimate, "agg-msgs")
				}
			}
		}
	}
}

// --- Ablation benches (DESIGN.md §4) -----------------------------------

func benchNet(n int, seed uint64) *overlay.Network {
	return overlay.New(graph.Heterogeneous(n, 10, xrand.New(seed)), 10, nil)
}

// BenchmarkAblationSCEstimator compares the paper's X²/(2l) formula with
// the MLE refinement: same sampling cost, different accuracy when
// l is large relative to N (here l=500 on 10k nodes, where the basic
// estimator saturates).
func BenchmarkAblationSCEstimator(b *testing.B) {
	for _, kind := range []struct {
		name string
		k    samplecollide.EstimatorKind
	}{{"basic", samplecollide.Basic}, {"mle", samplecollide.MLE}} {
		b.Run(kind.name, func(b *testing.B) {
			net := benchNet(10000, 1)
			e := samplecollide.New(samplecollide.Config{T: 10, L: 500, Kind: kind.k}, xrand.New(2))
			sumErr := 0.0
			for i := 0; i < b.N; i++ {
				est, err := e.Estimate(net)
				if err != nil {
					b.Fatal(err)
				}
				sumErr += math.Abs(est/10000-1) * 100
			}
			b.ReportMetric(sumErr/float64(b.N), "err%")
		})
	}
}

// BenchmarkAblationHopsReply compares direct replies (paper text, O(2N))
// with replies routed back along gossip parents (Table I accounting).
func BenchmarkAblationHopsReply(b *testing.B) {
	for _, mode := range []struct {
		name   string
		routed bool
	}{{"direct", false}, {"routed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			net := benchNet(10000, 3)
			cfg := hopssampling.Default()
			cfg.RoutedReplies = mode.routed
			e := hopssampling.New(cfg, xrand.New(4))
			for i := 0; i < b.N; i++ {
				if _, err := e.Estimate(net); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(net.Counter().Total())/float64(b.N), "msgs/est")
		})
	}
}

// BenchmarkAblationAdjacency compares the slice-backed O(1) neighbor
// sampling the graph uses against a map-backed neighbor set, the obvious
// alternative representation.
func BenchmarkAblationAdjacency(b *testing.B) {
	g := graph.Heterogeneous(10000, 10, xrand.New(5))
	b.Run("slice", func(b *testing.B) {
		rng := xrand.New(6)
		var sink graph.NodeID
		for i := 0; i < b.N; i++ {
			id := g.AliveAt(i % g.NumAlive())
			if v, ok := g.RandomNeighbor(id, rng); ok {
				sink = v
			}
		}
		_ = sink
	})
	b.Run("map", func(b *testing.B) {
		// Build the map-backed equivalent once.
		adj := make([]map[graph.NodeID]struct{}, g.NumIDs())
		g.ForEachAlive(func(id graph.NodeID) {
			m := make(map[graph.NodeID]struct{}, g.Degree(id))
			for _, v := range g.Neighbors(id) {
				m[v] = struct{}{}
			}
			adj[id] = m
		})
		rng := xrand.New(6)
		b.ResetTimer()
		var sink graph.NodeID
		for i := 0; i < b.N; i++ {
			id := g.AliveAt(i % g.NumAlive())
			m := adj[id]
			if len(m) == 0 {
				continue
			}
			k := rng.Intn(len(m))
			for v := range m {
				if k == 0 {
					sink = v
					break
				}
				k--
			}
		}
		_ = sink
	})
}

// BenchmarkAblationEventVsSweep measures why round-based protocols use
// synchronous sweeps instead of per-message heap events: one aggregation
// round on 10k nodes, both ways.
func BenchmarkAblationEventVsSweep(b *testing.B) {
	const n = 10000
	b.Run("sweep", func(b *testing.B) {
		net := benchNet(n, 7)
		p := aggregation.New(aggregation.Default(), xrand.New(8))
		if err := p.StartEpoch(net); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.RunRound(net)
		}
	})
	b.Run("event-heap", func(b *testing.B) {
		net := benchNet(n, 7)
		rng := xrand.New(8)
		g := net.Graph()
		values := make([]float64, g.NumIDs())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var e sim.Engine
			// One event per node exchange, as an event-driven simulator
			// would schedule a round.
			for j := 0; j < g.NumAlive(); j++ {
				u := g.AliveAt(j)
				e.Schedule(sim.Time(j), func() {
					if v, ok := g.RandomNeighbor(u, rng); ok {
						avg := (values[u] + values[v]) / 2
						values[u], values[v] = avg, avg
					}
				})
			}
			e.Run()
		}
	})
}

// --- Sharded-round benches ----------------------------------------------

// roundBenchSizes are the tentpole's reference scales: the paper's
// 100,000 and 1,000,000 node networks plus a 10M tier beyond it, not
// the reduced bench scale — the sharded sweep exists exactly for these
// sizes. The 10M tier runs only where the benchmark declares it
// affordable (see the skip rules at each site): a 10M heterogeneous
// overlay is ~1.7 GB of adjacency, so only the best-scaling mode of
// the cheap-state families carries it.
var roundBenchSizes = []struct {
	name string
	n    int
}{{"100k", 100000}, {"1M", 1000000}, {"10M", 10000000}}

// roundBenchModes are the shared mode columns of the per-family round
// benchmarks: the sequential baseline, the sharded sweep in frozen
// global-shuffle order (still pays the serial O(N) Fisher–Yates prefix
// every round), and the sharded sweep with per-shard local shuffles
// (the Amdahl fix — no serial prefix at all).
var roundBenchModes = []struct {
	name            string
	shards, workers int
	shuffle         parallel.ShuffleMode
}{
	{"seq", 1, 1, parallel.ShuffleGlobal},
	{"shard-global", 0, 0, parallel.ShuffleGlobal},
	{"shard-local", 0, 0, parallel.ShuffleLocal},
}

// BenchmarkAggregationRound compares one sequential round sweep against
// the sharded sweep (auto shard count, all CPUs) under both shuffle
// modes at 100k and 1M nodes. On >= 4 cores shard-local wins at 1M;
// BENCH_results.json tracks the same comparisons as the
// perf-agg-{seq,shard} and perf-engine-{global,local} suite experiments.
func BenchmarkAggregationRound(b *testing.B) {
	for _, size := range roundBenchSizes {
		for _, mode := range roundBenchModes {
			b.Run(size.name+"/"+mode.name, func(b *testing.B) {
				if size.n > 1000000 && mode.name != "shard-local" {
					b.Skip("10M tier runs only in the best-scaling shard-local mode")
				}
				net := benchNet(size.n, 30)
				p := aggregation.New(aggregation.Config{
					RoundsPerEpoch: 50, Shards: mode.shards, Workers: mode.workers, Shuffle: mode.shuffle,
				}, xrand.New(31))
				if err := p.StartEpoch(net); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.RunRound(net)
				}
			})
		}
	}
}

// BenchmarkPushSumRound is the same mode matrix for the push-sum round
// sweep, the third family riding the shared round engine.
func BenchmarkPushSumRound(b *testing.B) {
	for _, size := range roundBenchSizes {
		for _, mode := range roundBenchModes {
			b.Run(size.name+"/"+mode.name, func(b *testing.B) {
				if size.n > 1000000 && mode.name != "shard-local" {
					b.Skip("10M tier runs only in the best-scaling shard-local mode")
				}
				net := benchNet(size.n, 35)
				cfg := pushsum.Default()
				cfg.Shards = mode.shards
				cfg.Workers = mode.workers
				cfg.Shuffle = mode.shuffle
				p := pushsum.New(cfg, xrand.New(36))
				if err := p.StartEpoch(net); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.RunRound(net)
				}
			})
		}
	}
}

// BenchmarkCyclonRound is the same matrix for the CYCLON shuffle rounds,
// after 30% departures so stale-entry eviction is part of the workload.
func BenchmarkCyclonRound(b *testing.B) {
	for _, size := range roundBenchSizes {
		for _, mode := range roundBenchModes {
			b.Run(size.name+"/"+mode.name, func(b *testing.B) {
				if size.n > 1000000 && mode.name != "shard-local" {
					// CYCLON's flat view arena costs ~67 B per node
					// (8 slots of 8 B, a length word and a membership
					// flag) on top of the adjacency, so 10M fits
					// beside the epidemics' rows.
					b.Skip("10M tier runs only in the best-scaling shard-local mode")
				}
				g := graph.Heterogeneous(size.n, 10, xrand.New(32))
				cfg := cyclon.Default()
				cfg.Shards = mode.shards
				cfg.Workers = mode.workers
				cfg.Shuffle = mode.shuffle
				p := cyclon.New(cfg, xrand.New(33), nil)
				p.Bootstrap(g)
				rng := xrand.New(34)
				alive := g.AliveIDs()
				rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
				for _, id := range alive[:size.n*3/10] {
					p.Leave(id)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.RunRound()
				}
			})
		}
	}
}

// --- Extension benches ---------------------------------------------------

// BenchmarkExtRandomTourVsSampleCollide regenerates the §II background
// claim that Sample&Collide's overhead is much lower than Random Tour's.
func BenchmarkExtRandomTourVsSampleCollide(b *testing.B) { benchFigure(b, "ext-walks") }

// BenchmarkExtClasses runs one representative of all five counting
// classes on one overlay.
func BenchmarkExtClasses(b *testing.B) { benchFigure(b, "ext-classes") }

// BenchmarkExtDelay measures the §V delay conjecture under the
// physical-network model (the paper's future-work item).
func BenchmarkExtDelay(b *testing.B) { benchFigure(b, "ext-delay") }

// BenchmarkExtCyclon measures churn recovery on a CYCLON-maintained
// overlay.
func BenchmarkExtCyclon(b *testing.B) { benchFigure(b, "ext-cyclon") }

// BenchmarkTraceWeibull monitors all four estimators under heavy-tailed
// (Weibull k=0.5) session churn.
func BenchmarkTraceWeibull(b *testing.B) { benchFigure(b, "trace-weibull") }

// BenchmarkTraceDiurnal monitors under diurnally modulated arrivals
// with lognormal sessions, EWMA-smoothed.
func BenchmarkTraceDiurnal(b *testing.B) { benchFigure(b, "trace-diurnal") }

// BenchmarkTraceFlashcrowd monitors through a +50% flash crowd and a
// -25% mass failure with restart-on-shock smoothing.
func BenchmarkTraceFlashcrowd(b *testing.B) { benchFigure(b, "trace-flashcrowd") }

// BenchmarkTraceIPFS monitors the checked-in IPFS-calibrated empirical
// trace (fixed 1,000-node workload; Params scaling does not change it).
func BenchmarkTraceIPFS(b *testing.B) { benchFigure(b, "trace-ipfs") }

// BenchmarkStaticNew compares the PR-5 families (push-sum,
// capture–recapture, DHT density) against Sample&Collide on the static
// 100k-scale overlay.
func BenchmarkStaticNew(b *testing.B) { benchFigure(b, "static-new") }

// BenchmarkTraceIPFSAll monitors the IPFS workload with every
// monitoring-capable family at once — the widest roster in the suite.
func BenchmarkTraceIPFSAll(b *testing.B) { benchFigure(b, "trace-ipfs-all") }

// BenchmarkAblationChurnRepair quantifies the paper's no-re-linking rule:
// shrink an overlay by 50% with and without neighbor repair and report
// the surviving largest-component fraction (the mechanism behind
// Aggregation's failure in the shrinking scenario).
func BenchmarkAblationChurnRepair(b *testing.B) {
	for _, mode := range []struct {
		name   string
		repair bool
	}{{"paper-no-repair", false}, {"repair", true}} {
		b.Run(mode.name, func(b *testing.B) {
			frac := 0.0
			for i := 0; i < b.N; i++ {
				net := benchNet(5000, uint64(9+i))
				s := churn.Shrinking(5000, 100, 0.5)
				s.Repair = mode.repair
				r := churn.NewRunner(s, xrand.New(uint64(10+i)))
				for step := 0; step < s.TotalSteps; step++ {
					r.Step(net, step)
				}
				frac += float64(graph.LargestComponent(net.Graph())) / float64(net.Size())
			}
			b.ReportMetric(100*frac/float64(b.N), "largest-comp%")
		})
	}
}
