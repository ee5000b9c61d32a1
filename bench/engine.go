package main

import (
	"sync"
	"time"

	"repro/betweenness"
	"repro/graph"
	"repro/internal/bfs"
	"repro/internal/kadabra"
	"repro/internal/rng"
)

// kernelCounter counts and times every sample drawn through the samplers it
// wraps (installed with kadabra.Workload.WrapSampler). Each sampling thread
// gets its own countingSampler, so the hot path takes no lock; totals is read
// after the engine has returned and joined its threads.
type kernelCounter struct {
	mu   sync.Mutex
	list []*countingSampler
}

type countingSampler struct {
	inner   kadabra.Sampler
	samples int64
	busy    time.Duration
	path    int64
}

func (c *countingSampler) Sample() ([]graph.Node, bool) {
	start := time.Now()
	internal, ok := c.inner.Sample()
	c.busy += time.Since(start)
	c.samples++
	c.path += int64(len(internal))
	return internal, ok
}

func (k *kernelCounter) wrap(s kadabra.Sampler) kadabra.Sampler {
	c := &countingSampler{inner: s}
	k.mu.Lock()
	k.list = append(k.list, c)
	k.mu.Unlock()
	return c
}

func (k *kernelCounter) totals() (samples int64, busy time.Duration, path int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, c := range k.list {
		samples += c.samples
		busy += c.busy
		path += c.path
	}
	return samples, busy, path
}

// epochSpans returns an OnEpoch hook that records one span per epoch, from
// the previous epoch's end (the hook's first call marks the start) to this
// one's, under parent.
func (e *env) epochSpans(parent int64) func(kadabra.Progress) {
	if e.tr == nil {
		return nil
	}
	var prev time.Time
	return func(p kadabra.Progress) {
		now := time.Now()
		if !prev.IsZero() {
			e.tr.record(parent, "epoch", prev, now, "", map[string]any{"epoch": p.Epoch, "tau": p.Tau})
		}
		prev = now
	}
}

// recordEngine records the per-layer metrics of one traced engine run:
// the kadabra result fields and phase timings, and the kernel counters.
// threads is the number of sampling threads that shared the phases.
func (e *env) recordEngine(res *kadabra.Result, kc *kernelCounter, threads int) {
	t := res.Timings
	e.m.add("diameter.s", t.Diameter.Seconds())
	e.m.add("kadabra.calibration_s", t.Calibration.Seconds())
	e.m.add("kadabra.sampling_s", t.Sampling.Seconds())
	e.m.add("kadabra.check_s", t.Check.Seconds())
	e.m.add("kadabra.omega", res.Omega)
	e.recordResult(res.Tau, res.Epochs, res.VertexDiameter, float64(res.Tau)/(t.Calibration+t.Sampling).Seconds())
	samples, busy, path := kc.totals()
	e.m.add("bfs.samples", float64(samples))
	e.m.add("bfs.busy_s", busy.Seconds())
	e.m.add("bfs.path_vertices", float64(path))
	if samples > 0 {
		e.m.add("bfs.us_per_sample", busy.Seconds()*1e6/float64(samples))
	}
	phase := (t.Calibration + t.Sampling).Seconds() * float64(threads)
	e.m.add("epoch.kernel_share", busy.Seconds()/phase)
}

// recordResult records the estimate-level layer metrics every workload
// reports: tau, epochs, the vertex diameter and the sampling throughput.
func (e *env) recordResult(tau int64, epochs, vd int, samplesPerSec float64) {
	e.m.add("kadabra.tau", float64(tau))
	e.m.add("kadabra.epochs", float64(epochs))
	e.m.add("diameter.vd", float64(vd))
	e.m.add("kadabra.samples_per_s", samplesPerSec)
}

// overhead records trace.overhead: the traced operations' median time over
// the untraced ones', minus one.
func (e *env) overhead(traced, untraced []float64) {
	if len(traced) > 0 && len(untraced) > 0 {
		e.m.add("trace.overhead", median(traced)/median(untraced)-1)
	}
}

// Fixed sample counts of the kernel probes, per round.
const (
	probeRounds      = 3
	probeBiBFSCount  = 4000
	probeDijkstraCnt = 1000
)

// runProbes times fixed-count sample loops of the sampling kernels on the
// seed's graphs, outside any estimate: BiBFS on the social R-MAT LCC, and
// on the road lattice BiBFS, Dijkstra with unit weights and Dijkstra with
// the workload's weights <= 10 — one graph, so the BFS/Dijkstra ratio is
// not a cross-graph comparison. Every traced run makes them, whatever its
// workload, so the kernels are measured on every traced run.
func (e *env) runProbes() error {
	social, _, err := graph.LargestComponent(graph.RMAT(graph.Graph500(socialScale, socialEdgeFactor, e.derive("social", 0))))
	if err != nil {
		return err
	}
	road, _, err := graph.LargestComponentW(roadInput(e))
	if err != nil {
		return err
	}
	lattice := road.Unweighted()
	unit := graph.RandomWeights(lattice, 1, 1)
	probes := []struct {
		name  string
		count int
		make  func(r *rng.Rand) kadabra.Sampler
	}{
		{"bfs.rmat.bibfs_us", probeBiBFSCount, func(r *rng.Rand) kadabra.Sampler { return bfs.NewSampler(social, r) }},
		{"bfs.road.bibfs_us", probeBiBFSCount, func(r *rng.Rand) kadabra.Sampler { return bfs.NewSampler(lattice, r) }},
		{"bfs.road.dijkstra_unit_us", probeDijkstraCnt, func(r *rng.Rand) kadabra.Sampler { return bfs.NewWeightedSampler(unit, r) }},
		{"bfs.road.dijkstra_w10_us", probeDijkstraCnt, func(r *rng.Rand) kadabra.Sampler { return bfs.NewWeightedSampler(road, r) }},
	}
	for _, p := range probes {
		var rounds []float64
		for round := 0; round < probeRounds; round++ {
			s := p.make(rng.NewRand(e.derive(p.name, round)))
			d, _ := e.tr.timed(0, "probe."+p.name, func(int64) error {
				for i := 0; i < p.count; i++ {
					s.Sample()
				}
				return nil
			})
			rounds = append(rounds, d.Seconds()*1e6/float64(p.count))
		}
		e.m.add(p.name, median(rounds))
	}
	return nil
}

// estimateOptions are the public-API options every library workload shares.
func estimateOptions(eps float64, seed uint64) []betweenness.Option {
	return []betweenness.Option{betweenness.WithEpsilon(eps), betweenness.WithDelta(delta), betweenness.WithSeed(seed)}
}

// delta is the failure probability of every estimate. It is below the
// paper's 0.1 so that the correctness gate — every vertex within eps on
// every estimate, over thousands of estimates per benchmark — checks the
// program rather than the odds: at 0.1 a rare in-contract miss would read
// as a failure.
const delta = 0.01
