package kadabra

import (
	"context"
	"time"
)

// SequentialWorkload runs the plain (single-threaded) KADABRA algorithm on
// any workload. It is the reference implementation: the parallel variants
// must produce statistically identical results, and the tests validate the
// (eps, delta) guarantee against Brandes on this version.
//
// It is the one-shot wrapper over the sequential engine of the anytime
// estimator state machine (estimator.go): build the session, run it to
// completion (or to the Config budget), and materialize the result. The
// statistical machinery (omega, calibration, the adaptive stopping rule),
// cancellation, budgets, and the OnEpoch hook all live in the machine, so
// one-shot runs and resumable sessions are the same code path sample for
// sample. The context is checked between sample batches; when it is
// cancelled the run stops within one CheckInterval and returns ctx.Err().
func SequentialWorkload(ctx context.Context, w Workload, cfg Config) (*Result, error) {
	start := time.Now()
	st, err := NewEstimatorState(w, 0, cfg)
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
