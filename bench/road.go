package main

import (
	"context"
	"time"

	"repro/betweenness"
	"repro/graph"
	"repro/internal/kadabra"
)

const roadEps = 0.03

// runRoad is road-weighted: the weighted road lattice on the Sequential
// backend — the Dijkstra kernel alone, with no epoch framework.
func runRoad(e *env) error {
	input := e.path("road.txt")
	if err := graph.SaveWGraphFile(input, roadInput(e)); err != nil {
		return err
	}
	load := func(record bool) (*graph.WGraph, error) {
		return loadLCC(e, input, record, graph.LoadWGraphFile, func(g *graph.WGraph) (*graph.WGraph, error) {
			lcc, _, err := graph.LargestComponentW(g)
			return lcc, err
		})
	}
	g, err := load(false)
	if err != nil {
		return err
	}
	ref, err := e.reference(betweenness.Weighted(g).Digest(), func() ([]float64, error) {
		return betweenness.ExactWeighted(g, e.threads), nil
	})
	if err != nil {
		return err
	}
	g = nil
	e.resetPeak()
	if g, err = repeatSetup(e, func() (*graph.WGraph, func(), error) {
		g, err := load(true)
		return g, nil, err
	}, nil); err != nil {
		return err
	}

	public := func(seed uint64) (time.Duration, int64, error) {
		start := time.Now()
		res, err := betweenness.EstimateWorkload(context.Background(), betweenness.Weighted(g),
			append(estimateOptions(roadEps, seed), betweenness.WithExecutor(betweenness.Sequential()))...)
		d := time.Since(start)
		if err != nil {
			return d, 0, err
		}
		return d, res.Tau, e.gate(ref, res.Estimates, res.Converged, roadEps)
	}
	traced := func(seed uint64) (time.Duration, int64, error) {
		kc := &kernelCounter{}
		w := kadabra.WeightedWorkload(g).WrapSampler(kc.wrap)
		var res *kadabra.Result
		d, err := e.tr.timed(0, "kadabra.sequential", func(id int64) error {
			cfg := kadabra.Config{Eps: roadEps, Delta: delta, Seed: seed, OnEpoch: e.epochSpans(id)}
			var err error
			res, err = kadabra.SequentialWorkload(context.Background(), w, cfg)
			return err
		})
		if err != nil {
			return d, 0, err
		}
		e.recordEngine(res, kc, 1)
		return d, res.Tau, e.gate(ref, res.Betweenness, res.Converged, roadEps)
	}
	return e.estimateLoop("road-estimate", public, traced)
}
