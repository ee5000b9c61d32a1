package kadabra

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Top-k mode. The paper's introduction motivates small eps by the need to
// "reliably detect [the] vertices with highest betweenness score"; the
// KADABRA paper itself ships a dedicated top-k variant whose stopping
// condition asks not for a uniform absolute error but for a certified
// ranking: the confidence intervals of the top-k vertices must separate
// from everyone else's (or shrink below a resolution limit, when scores are
// tied within eps). This is usually far cheaper than driving the uniform
// error below the k-th score gap.

// TopKResult extends Result with the certified ranking.
type TopKResult struct {
	Result
	// Top holds the k top vertices in descending order of estimated score.
	Top []graph.Node
	// Lower and Upper are per-vertex confidence bounds (valid
	// simultaneously with probability 1-delta): Lower[v] <= b(v) <= Upper[v].
	Lower, Upper []float64
	// Separated reports whether the run ended with a clean separation
	// (true) or by hitting the eps resolution limit / omega (false).
	Separated bool
}

// TopKHaveToStop evaluates the top-k stopping condition on a consistent
// state: order vertices by empirical betweenness; stop when the k-th
// smallest lower bound among the top set dominates the largest upper bound
// outside it (clean separation), or when every confidence interval has
// shrunk below eps (the ranking is then correct up to eps-ties), or when
// tau has reached omega.
//
// The scratch slices lower/upper (length n) are filled with the bounds as a
// side effect, so callers can report them.
func (cal *Calibration) TopKHaveToStop(counts []int64, tau int64, k int, lower, upper []float64) (stop, separated bool) {
	n := len(counts)
	if tau <= 0 || k <= 0 || k >= n {
		return false, false
	}
	ft := float64(tau)
	for v, c := range counts {
		bt := float64(c) / ft
		lower[v] = bt - FBound(bt, cal.DeltaL[v], cal.Omega, tau)
		upper[v] = bt + GBound(bt, cal.DeltaU[v], cal.Omega, tau)
	}
	// Find the top-k set by empirical score via partial selection.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		return a < b
	})
	minTopLower := 1.0
	for _, v := range idx[:k] {
		if lower[v] < minTopLower {
			minTopLower = lower[v]
		}
	}
	maxRestUpper := 0.0
	for _, v := range idx[k:] {
		if upper[v] > maxRestUpper {
			maxRestUpper = upper[v]
		}
	}
	if minTopLower >= maxRestUpper {
		return true, true
	}
	// Resolution fallback: all intervals narrower than eps.
	allNarrow := true
	for v := range counts {
		if upper[v]-lower[v] >= cal.Eps {
			allNarrow = false
			break
		}
	}
	if allNarrow {
		return true, false
	}
	if ft >= cal.Omega {
		return true, false
	}
	return false, false
}

// SequentialTopK runs the sequential KADABRA top-k variant: identify the k
// highest-betweenness vertices. cfg.Eps acts as the resolution limit for
// tie-breaking (the returned ranking may swap vertices whose true scores
// differ by less than eps).
func SequentialTopK(ctx context.Context, g *graph.Graph, k int, cfg Config) (*TopKResult, error) {
	w := UndirectedWorkload(g)
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if k < 1 || k >= g.NumNodes() {
		return nil, fmt.Errorf("kadabra: k=%d out of range [1, %d)", k, g.NumNodes())
	}
	start := time.Now()
	cfg = cfg.withDefaults()
	b := cfg.NewBudget(start)
	n := g.NumNodes()

	vd, diamTime := w.ResolveDiameter(cfg)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	omega := Omega(vd, cfg.Eps, cfg.Delta)

	r := rng.NewRand(cfg.Seed)
	sampler := bfs.NewSampler(g, r)
	counts := make([]int64, n)
	var tau int64
	takeSample := func() {
		internal, ok := sampler.Sample()
		tau++
		if ok {
			for _, v := range internal {
				counts[v]++
			}
		}
	}

	calStart := time.Now()
	tau0 := int64(omega)/int64(cfg.StartFactor) + 1
	for tau < tau0 && !(b.MaxSamples > 0 && tau >= b.MaxSamples) {
		if tau%calCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if b.Overdue() {
				break
			}
		}
		takeSample()
	}
	cal := Calibrate(counts, tau, omega, cfg.Eps, cfg.Delta)
	calTime := time.Since(calStart)

	samplingStart := time.Now()
	lower := make([]float64, n)
	upper := make([]float64, n)
	checks := 0
	var stop, separated, budgeted bool
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stop, separated = cal.TopKHaveToStop(counts, tau, k, lower, upper)
		checks++
		if cfg.OnEpoch != nil {
			p := Progress{Epoch: checks, Tau: tau, AchievedEps: intervalEps(counts, tau, lower, upper)}
			if el := time.Since(calStart).Seconds(); el > 0 {
				p.SamplesPerSec = float64(tau) / el
			}
			cfg.OnEpoch(p)
		}
		if stop {
			break
		}
		if b.Exceeded(tau) {
			budgeted = true
			break
		}
		// The batch target honours the sample cap exactly, matching the
		// uniform sequential engine's "stops at exactly MaxSamples".
		batch := int64(cfg.CheckInterval)
		if b.MaxSamples > 0 && b.MaxSamples-tau < batch {
			batch = b.MaxSamples - tau
		}
		for i := int64(0); i < batch && float64(tau) < omega; i++ {
			takeSample()
			if tau%calCheckEvery == 0 && (b.Overdue() || ctx.Err() != nil) {
				break
			}
		}
	}
	samplingTime := time.Since(samplingStart)

	bt := make([]float64, n)
	for v, c := range counts {
		bt[v] = float64(c) / float64(tau)
	}
	res := &TopKResult{
		Result: Result{
			Betweenness:    bt,
			Tau:            tau,
			Omega:          omega,
			VertexDiameter: vd,
			Epochs:         checks,
			AchievedEps:    cal.AchievedEps(counts, tau),
			Converged:      !budgeted,
			Timings: Timings{
				Diameter:    diamTime,
				Calibration: calTime,
				Sampling:    samplingTime,
			},
		},
		Lower:     lower,
		Upper:     upper,
		Separated: separated,
	}
	res.Top = res.TopK(k)
	return res, nil
}

// intervalEps is the anytime guarantee read off the top-k confidence
// intervals: the largest one-sided deviation of any vertex's interval from
// its point estimate (equal to max(f, g) per vertex, since the bounds were
// built from them).
func intervalEps(counts []int64, tau int64, lower, upper []float64) float64 {
	if tau <= 0 {
		return 1
	}
	ft := float64(tau)
	worst := 0.0
	for v, c := range counts {
		bt := float64(c) / ft
		if d := bt - lower[v]; d > worst {
			worst = d
		}
		if d := upper[v] - bt; d > worst {
			worst = d
		}
	}
	if worst > 1 {
		worst = 1
	}
	return worst
}
