// Estimate benchmarks: the workload x backend matrix of the public API on
// small generated instances — Sequential vs SharedMemory vs a genuine
// 2-rank TCP world, each on the undirected, directed, and weighted
// workloads. CI runs them once per cell so they never stop compiling or
// panic; the repo's tracked measurements come from `bash bench/run.sh`.
package repro

import (
	"context"
	"net"
	"sync"
	"testing"

	"repro/betweenness"
	"repro/graph"
)

// benchEstimateEps keeps single iterations fast while still exercising the
// full calibration + adaptive-sampling pipeline.
const benchEstimateEps = 0.05

// benchEstimateWorkloads builds one small instance per workload kind:
// a social-network proxy (R-MAT), a strongly connected random digraph,
// and a weighted road lattice.
func benchEstimateWorkloads(b *testing.B) map[string]betweenness.Workload {
	b.Helper()
	rmat := graph.RMAT(graph.Graph500(10, 8, 42))
	lcc, _, err := graph.LargestComponent(rmat)
	if err != nil {
		b.Fatal(err)
	}
	dg := graph.RandomDigraph(1000, 8000, 42)
	road := graph.Road(graph.RoadParams{Rows: 24, Cols: 24, DeleteProb: 0.1, Seed: 42})
	rl, _, err := graph.LargestComponent(road)
	if err != nil {
		b.Fatal(err)
	}
	return map[string]betweenness.Workload{
		"undirected": betweenness.Undirected(lcc),
		"directed":   betweenness.Directed(dg),
		"weighted":   betweenness.Weighted(graph.RandomWeights(rl, 10, 42)),
	}
}

func benchEstimateOpts(extra ...betweenness.Option) []betweenness.Option {
	return append([]betweenness.Option{
		betweenness.WithEpsilon(benchEstimateEps),
		betweenness.WithDelta(0.1),
		betweenness.WithSeed(42),
	}, extra...)
}

// runBenchWorkload runs one estimate and reports sampling throughput.
func runBenchWorkload(b *testing.B, w betweenness.Workload, opts ...betweenness.Option) {
	b.Helper()
	res, err := betweenness.EstimateWorkload(context.Background(), w, benchEstimateOpts(opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	if s := res.Timings.Sampling.Seconds(); s > 0 {
		b.ReportMetric(float64(res.Tau)/s, "samples/s")
	}
}

// benchFreeAddrs reserves n loopback addresses for a TCP bench world.
func benchFreeAddrs(b *testing.B, n int) []string {
	b.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// BenchmarkEstimate is the workload x backend sweep. Sub-benchmark names
// follow BenchmarkEstimate/<workload>/<backend>.
func BenchmarkEstimate(b *testing.B) {
	workloads := benchEstimateWorkloads(b)
	for _, kind := range []string{"undirected", "directed", "weighted"} {
		w := workloads[kind]

		b.Run(kind+"/sequential", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBenchWorkload(b, w, betweenness.WithExecutor(betweenness.Sequential()))
			}
		})

		b.Run(kind+"/shared-memory", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBenchWorkload(b, w,
					betweenness.WithThreads(4),
					betweenness.WithExecutor(betweenness.SharedMemory()))
			}
		})

		b.Run(kind+"/tcp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addrs := benchFreeAddrs(b, 2)
				results := make([]*betweenness.Result, 2)
				errs := make([]error, 2)
				var wg sync.WaitGroup
				for rank := 0; rank < 2; rank++ {
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						results[rank], errs[rank] = betweenness.EstimateWorkload(
							context.Background(), w, benchEstimateOpts(
								betweenness.WithThreads(2),
								betweenness.WithExecutor(betweenness.TCP(rank, addrs)))...)
					}(rank)
				}
				wg.Wait()
				for rank, err := range errs {
					if err != nil {
						b.Fatalf("rank %d: %v", rank, err)
					}
				}
				res := results[0]
				if s := res.Timings.Sampling.Seconds(); s > 0 {
					b.ReportMetric(float64(res.Tau)/s, "samples/s")
				}
			}
		})
	}
}
