package main

import (
	"context"
	"time"

	"repro/betweenness"
	"repro/graph"
	"repro/internal/kadabra"
)

const socialEps = 0.005

// runSocial is social-shm: the R-MAT LCC on the default SharedMemory
// backend with one thread per CPU.
func runSocial(e *env) error {
	input := e.path("social.txt")
	if err := writeSocialInput(input, e.derive("social", 0)); err != nil {
		return err
	}
	load := func(record bool) (*graph.Graph, error) {
		return loadLCC(e, input, record, graph.LoadFile, func(g *graph.Graph) (*graph.Graph, error) {
			lcc, _, err := graph.LargestComponent(g)
			return lcc, err
		})
	}
	g, err := load(false)
	if err != nil {
		return err
	}
	ref, err := e.reference(betweenness.Undirected(g).Digest(), func() ([]float64, error) {
		return betweenness.Exact(g, e.threads), nil
	})
	if err != nil {
		return err
	}
	g = nil
	e.resetPeak()
	if g, err = repeatSetup(e, func() (*graph.Graph, func(), error) {
		g, err := load(true)
		return g, nil, err
	}, nil); err != nil {
		return err
	}

	public := func(seed uint64) (time.Duration, int64, error) {
		start := time.Now()
		res, err := betweenness.EstimateWorkload(context.Background(), betweenness.Undirected(g),
			append(estimateOptions(socialEps, seed), betweenness.WithThreads(e.threads))...)
		d := time.Since(start)
		if err != nil {
			return d, 0, err
		}
		return d, res.Tau, e.gate(ref, res.Estimates, res.Converged, socialEps)
	}
	traced := func(seed uint64) (time.Duration, int64, error) {
		kc := &kernelCounter{}
		w := kadabra.UndirectedWorkload(g).WrapSampler(kc.wrap)
		var res *kadabra.Result
		d, err := e.tr.timed(0, "kadabra.shared_memory", func(id int64) error {
			cfg := kadabra.Config{Eps: socialEps, Delta: delta, Seed: seed, OnEpoch: e.epochSpans(id)}
			var err error
			res, err = kadabra.SharedMemoryWorkload(context.Background(), w, e.threads, cfg)
			return err
		})
		if err != nil {
			return d, 0, err
		}
		e.recordEngine(res, kc, e.threads)
		e.m.add("epoch.transition_s", res.Timings.Transition.Seconds())
		return d, res.Tau, e.gate(ref, res.Betweenness, res.Converged, socialEps)
	}
	return e.estimateLoop("social-estimate", public, traced)
}
