package kadabra

import (
	"context"
	"testing"

	"repro/internal/brandes"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestTopKHaveToStopBasics(t *testing.T) {
	counts := []int64{100, 50, 2, 1}
	cal := Calibrate(counts, 153, 1e6, 0.01, 0.1)
	lower := make([]float64, 4)
	upper := make([]float64, 4)
	// Far too few samples: no stop.
	if stop, _ := cal.TopKHaveToStop(counts, 153, 1, lower, upper); stop {
		t.Fatal("stopped with 153 samples")
	}
	// Bounds must bracket the empirical scores.
	for v, c := range counts {
		bt := float64(c) / 153
		if lower[v] > bt || upper[v] < bt {
			t.Fatalf("bounds do not bracket b~: [%f, %f] vs %f", lower[v], upper[v], bt)
		}
	}
	// Invalid k: never stop.
	if stop, _ := cal.TopKHaveToStop(counts, 153, 0, lower, upper); stop {
		t.Fatal("k=0 stopped")
	}
	if stop, _ := cal.TopKHaveToStop(counts, 153, 4, lower, upper); stop {
		t.Fatal("k=n stopped")
	}
	// tau >= omega: stop (fallback).
	calSmall := Calibrate(counts, 153, 200, 0.01, 0.1)
	if stop, sep := calSmall.TopKHaveToStop(counts, 201, 1, lower, upper); !stop || sep {
		t.Fatalf("omega fallback: stop=%v sep=%v", stop, sep)
	}
}

func TestTopKSeparationWithExtremeScores(t *testing.T) {
	// A vertex holding almost all the probability mass separates quickly.
	// (omega must be of realistic magnitude: the f/g bounds scale with
	// omega/tau, so a vacuously large omega keeps them loose.)
	counts := []int64{9000, 10, 5, 2}
	tau := int64(10000)
	cal := Calibrate(counts, tau, 2e4, 0.001, 0.1)
	lower := make([]float64, 4)
	upper := make([]float64, 4)
	stop, sep := cal.TopKHaveToStop(counts, tau, 1, lower, upper)
	if !stop || !sep {
		t.Fatalf("clear leader not separated: stop=%v sep=%v lower=%v upper=%v", stop, sep, lower, upper)
	}
}

func TestSequentialTopKStarGraph(t *testing.T) {
	// Star graph: the center is the unique top-1 vertex by a huge margin;
	// the top-k mode must find and certify it with very few samples.
	n := 101
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.Node(i))
	}
	g := b.Build()
	res, err := SequentialTopK(context.Background(), g, 1, Config{Eps: 0.01, Delta: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Top[0] != 0 {
		t.Fatalf("top-1 is %d, want 0 (center)", res.Top[0])
	}
	if !res.Separated {
		t.Fatal("star center not separated")
	}
	// The separation stop must come far before the uniform-eps stop.
	uniform, err := SequentialWorkload(context.Background(), UndirectedWorkload(g), Config{Eps: 0.01, Delta: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau >= uniform.Tau {
		t.Fatalf("top-k mode (%d samples) not cheaper than uniform mode (%d)", res.Tau, uniform.Tau)
	}
}

func TestSequentialTopKMatchesBrandes(t *testing.T) {
	g := gen.RMAT(gen.Graph500(8, 8, 31))
	g, _ = graph.LargestComponent(g)
	k := 5
	res, err := SequentialTopK(context.Background(), g, k, Config{Eps: 0.01, Delta: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	exact := brandes.TopK(brandes.Exact(g), k)
	// With separation, the exact top-1 must be in our certified top set
	// (ties within eps may permute lower ranks).
	found := false
	for _, v := range res.Top {
		if v == exact[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("exact top vertex %d missing from certified top-%d %v", exact[0], k, res.Top)
	}
	// Confidence bounds must bracket the exact scores (holds w.p. 0.9; the
	// run is deterministic via the seed, so this is a stable check).
	exactScores := brandes.Exact(g)
	for v := range exactScores {
		if exactScores[v] < res.Lower[v]-1e-9 || exactScores[v] > res.Upper[v]+1e-9 {
			t.Fatalf("vertex %d: exact %f outside [%f, %f]",
				v, exactScores[v], res.Lower[v], res.Upper[v])
		}
	}
}

func TestSequentialTopKValidation(t *testing.T) {
	g := gen.RMAT(gen.Graph500(6, 8, 1))
	g, _ = graph.LargestComponent(g)
	if _, err := SequentialTopK(context.Background(), g, 0, Config{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := SequentialTopK(context.Background(), g, g.NumNodes(), Config{}); err == nil {
		t.Fatal("k=n accepted")
	}
	if _, err := SequentialTopK(context.Background(), graph.NewBuilder(1).Build(), 1, Config{}); err == nil {
		t.Fatal("tiny graph accepted")
	}
}
