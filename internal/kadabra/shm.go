package kadabra

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/bfs"
	"repro/internal/epoch"
	"repro/internal/graph"
	"repro/internal/rng"
)

// SharedMemoryWorkload runs the epoch-based shared-memory parallelization
// of KADABRA on any workload — the state-of-the-art competitor of the
// paper (its Ref. 24), which the MPI algorithm is benchmarked against in
// Figures 2 and 3. threads <= 0 means GOMAXPROCS.
//
// Thread 0 is the coordinator: it samples, initiates epoch transitions,
// aggregates the frozen epoch frames and checks the stopping condition,
// overlapping all coordination with further sampling (paper Alg. 2 with the
// MPI calls removed). Threads 1..T-1 only sample and poll CheckTransition —
// they are wait-free. The epoch framework, cancellation, budgets, and the
// OnEpoch hook live in the estimator state machine (estimator.go),
// workload-agnostic; only the sampling kernel each thread runs differs.
//
// The context is checked once per epoch on the coordinator (and between
// calibration batches on every thread); on cancellation the run stops
// within one epoch and returns ctx.Err().
func SharedMemoryWorkload(ctx context.Context, w Workload, threads int, cfg Config) (*Result, error) {
	start := time.Now()
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	st, err := NewEstimatorState(w, threads, cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := st.Run(ctx, cfg.NewBudget(start)); err != nil {
		return nil, err
	}
	return st.Result(), nil
}

// SimpleParallel is the strawman parallelization the paper's §III-B warns
// about: all threads take a fixed batch of samples, then a blocking barrier
// synchronizes everyone, the batches are merged and the stopping condition
// is checked — with no overlap of sampling and aggregation. It exists as
// the ablation baseline demonstrating why the epoch framework is needed.
func SimpleParallel(ctx context.Context, g *graph.Graph, threads int, cfg Config) (*Result, error) {
	w := UndirectedWorkload(g)
	if err := w.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	n := g.NumNodes()
	vd, diamTime := w.ResolveDiameter(cfg)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	omega := Omega(vd, cfg.Eps, cfg.Delta)

	master := rng.NewRand(cfg.Seed)
	samplers := make([]*bfs.Sampler, threads)
	for i := range samplers {
		samplers[i] = bfs.NewSampler(g, master.Split())
	}

	calStart := time.Now()
	tau0 := int64(omega)/int64(cfg.StartFactor) + 1
	S := newStateFrame(n, cfg)
	batch := func(per int) {
		var wg sync.WaitGroup
		partial := make([]*epoch.StateFrame, threads)
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				local := newStateFrame(n, cfg)
				for i := 0; i < per; i++ {
					SampleInto(samplers[t], local)
				}
				partial[t] = local
			}(t)
		}
		wg.Wait() // the blocking barrier: nothing overlaps
		for t := 0; t < threads; t++ {
			S.Add(partial[t])
		}
	}
	batch(int(tau0)/threads + 1)
	cal := Calibrate(S.C, S.Tau, omega, cfg.Eps, cfg.Delta)
	calTime := time.Since(calStart)

	samplingStart := time.Now()
	n0 := cfg.EpochLength(threads)
	epochs := 0
	var checkTime time.Duration
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cs := time.Now()
		stop := cal.HaveToStop(S.C, S.Tau)
		checkTime += time.Since(cs)
		if stop {
			break
		}
		batch(n0)
		epochs++
	}
	samplingTime := time.Since(samplingStart)

	bt := make([]float64, n)
	for v, c := range S.C {
		bt[v] = float64(c) / float64(S.Tau)
	}
	return &Result{
		Betweenness:    bt,
		Tau:            S.Tau,
		Omega:          omega,
		VertexDiameter: vd,
		Epochs:         epochs,
		AchievedEps:    cal.AchievedEps(S.C, S.Tau),
		Converged:      true,
		Timings: Timings{
			Diameter:    diamTime,
			Calibration: calTime,
			Sampling:    samplingTime,
			Check:       checkTime,
		},
	}, nil
}
