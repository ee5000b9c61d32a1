// Command bench is the repository benchmark: the time to a converged
// (eps, delta) betweenness approximation on four workloads, end to end, plus
// a traced run that splits the time by layer. See README.md for the
// workloads, the metrics and the layer each metric should move.
//
//	bash bench/run.sh --workload social-shm --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh compare BASE CHANGE
//
// It runs from the repository root and writes only under .bench_build/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/betweenness"
	"repro/internal/memprof"
	"repro/internal/rng"
)

// workload is one set of inputs and load the benchmark runs; why each
// exists is in BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(e *env) error
}

var workloads = []workload{
	{"social-shm", runSocial},
	{"road-weighted", runRoad},
	{"big-tcp", runBigTCP},
	{"service", runService},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed: every input and estimator seed derives from it")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames())
	}
	if err := validateDefs(append(append(append([]metricDef(nil), endToEnd...), perLayer...), detailMetrics...)); err != nil {
		return err
	}

	root, err := os.Getwd()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	work := filepath.Join(build, "work", fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	for _, d := range []string{work, filepath.Join(build, "ref"), filepath.Join(build, "results"), filepath.Join(build, "trace")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	defer os.RemoveAll(work)

	started := time.Now()
	e := &env{
		build: build, work: work,
		seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, threads: runtime.NumCPU(),
		m: newCollector(),
	}
	if e.traced {
		e.tr = newTracer(started)
	}
	if err := wl.run(e); err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}

	res := &result{
		Schema: resultSchema, Workload: wl.name, Seed: *seed, Seconds: *seconds, Trace: e.traced,
		Meta:      currentMeta(root, started.UTC().Format(time.RFC3339)),
		Attempted: int(e.attempted.Load()), Failed: int(e.failed.Load()),
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	e.m.add("error_rate", float64(res.Failed)/float64(res.Attempted))
	res.Correct = res.Failed == 0
	res.Metrics = e.m.summarize()

	suffix := fmt.Sprintf("%s-seed%d-trace%d", wl.name, *seed, *traceFlag)
	if err := writeResult(filepath.Join(build, "results", suffix+".json"), res); err != nil {
		return err
	}
	if e.traced {
		if err := e.tr.write(filepath.Join(build, "trace", suffix+".json"), wl.name, *seed, res.Metrics); err != nil {
			return err
		}
	}
	printTable(os.Stdout, res, e)

	declared := endToEnd
	if e.traced {
		declared = perLayer
	}
	line, err := buildLine(res, declared)
	if err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printTable writes every metric the run produced, one per line, before the
// result line.
func printTable(w io.Writer, r *result, e *env) {
	fmt.Fprintf(w, "# %s seed=%d trace=%v nproc=%d gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Trace, r.Meta.NumCPU, r.Meta.GOMAXPROCS, r.Meta.GoVersion, shortCommit(r.Meta.Commit))
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Metrics[name]
		fmt.Fprintf(w, "# %-28s %14.6g %-8s (n=%d, q1=%.6g, q3=%.6g)\n", name, s.Value, s.Unit, s.N, s.Q1, s.Q3)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d\n", r.Attempted, r.Failed)
	for _, f := range e.failures {
		fmt.Fprintf(w, "# failure: %s\n", f)
	}
}

// env is one run's state, shared by a workload's goroutines.
type env struct {
	build, work string
	seed        uint64
	window      time.Duration
	traced      bool
	threads     int
	tr          *tracer // nil when untraced
	m           *collector

	attempted, failed atomic.Int64
	mu                sync.Mutex
	failures          []string
}

// check counts one attempted operation and, when err is non-nil, one
// failure, keeping the first few reasons for the report.
func (e *env) check(err error) {
	e.attempted.Add(1)
	if err == nil {
		return
	}
	e.failed.Add(1)
	e.mu.Lock()
	if len(e.failures) < 8 {
		e.failures = append(e.failures, err.Error())
	}
	e.mu.Unlock()
}

// derive returns a seed for the named input or estimate, a pure function
// of the workload seed.
func (e *env) derive(label string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	sm := rng.NewSplitMix64(e.seed ^ h.Sum64() ^ uint64(i)*0x9E3779B97F4A7C15)
	return sm.Next() | 1
}

// path names a scratch file of this run.
func (e *env) path(name string) string { return filepath.Join(e.work, name) }

// resetPeak frees what input generation and reference scores left behind
// and resets the kernel's peak-RSS mark, so peak_rss_mib covers only the
// workload's own set-up and operations.
func (e *env) resetPeak() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "bench: peak_rss_mib includes input generation: resetting the peak RSS mark: %v\n", err)
	}
}

func (e *env) recordPeak() {
	e.m.add("peak_rss_mib", float64(memprof.Read().VmHWM)/(1<<20))
}

// Set-up repeats at least minSetupReps times and until setupBudget has
// passed (at most maxSetupReps), so fast set-ups still report a steady
// median; setup_s is the median.
const (
	minSetupReps = 3
	maxSetupReps = 50
	setupBudget  = time.Second
)

// repeatSetup runs fn as often as the constants above say, recording each
// duration as setup_s and releasing every result but the last. verify, when
// not nil, checks each result outside the timed region; each check counts
// as one operation.
func repeatSetup[T any](e *env, fn func() (T, func(), error), verify func(T) error) (T, error) {
	var last T
	var release func()
	begin := time.Now()
	for i := 0; i < maxSetupReps && (i < minSetupReps || time.Since(begin) < setupBudget); i++ {
		if release != nil {
			release()
		}
		runtime.GC() // every repetition starts from the same heap
		start := time.Now()
		v, rel, err := fn()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		e.m.add("setup_s", time.Since(start).Seconds())
		last, release = v, rel
		if verify != nil {
			e.check(verify(v))
		}
	}
	return last, nil
}

// loop calls op until the measured window has elapsed, and at least twice
// so a traced run has both halves; the op's index lets it derive its seed.
// It runs one warm-up op first, outside the window and with timed=false, so
// lazy set-up (page faults, pools) is not charged to the first measured op.
func (e *env) loop(op func(i int, timed bool)) {
	op(-1, false)
	deadline := time.Now().Add(e.window)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		op(i, true)
	}
}

// estimateOp runs one checked estimate with the given seed and returns its
// wall time and tau; a failed check is an error.
type estimateOp func(seed uint64) (time.Duration, int64, error)

// estimateLoop is the measured window of the three library workloads.
// Operations go through the public API and feed solve_s; on a traced run
// every second one goes through traced instead, and trace.overhead compares
// the two halves. The peak RSS and, when traced, the kernel probes follow.
func (e *env) estimateLoop(label string, public, traced estimateOp) error {
	var tracedS, untracedS []float64
	e.loop(func(i int, timed bool) {
		op, isTraced := public, e.traced && i%2 == 1
		if isTraced {
			op = traced
		}
		d, tau, err := op(e.derive(label, i))
		e.check(err)
		switch {
		case err != nil || !timed:
		case isTraced:
			tracedS = append(tracedS, d.Seconds())
		default:
			e.m.add("solve_s", d.Seconds())
			e.m.add("samples_per_s", float64(tau)/d.Seconds())
			untracedS = append(untracedS, d.Seconds())
		}
	})
	e.recordPeak()
	if !e.traced {
		return nil
	}
	e.overhead(tracedS, untracedS)
	return e.runProbes()
}

// loadLCC is the set-up of social-shm and road-weighted: load the input
// file, reduce it to its largest component, and (when record is set)
// record both calls as ingest metrics.
func loadLCC[G any](e *env, path string, record bool, load func(string) (G, error), lcc func(G) (G, error)) (G, error) {
	var raw, g G
	var err error
	loadD, err := e.tr.timed(0, "graph.load", func(int64) error {
		raw, err = load(path)
		return err
	})
	if err != nil {
		return g, err
	}
	lccD, err := e.tr.timed(0, "graph.lcc", func(int64) error {
		g, err = lcc(raw)
		return err
	})
	if err != nil || !record {
		return g, err
	}
	mb, err := fileMB(path)
	if err != nil {
		return g, err
	}
	e.m.add("graph.load_s", loadD.Seconds())
	e.m.add("graph.lcc_s", lccD.Seconds())
	total := (loadD + lccD).Seconds()
	e.m.add("ingest.s", total)
	e.m.add("ingest.mb_s", mb/total)
	return g, nil
}

// gate is the correctness gate shared by the workloads: the result
// converged and every vertex is within tol of the reference — eps against
// exact scores, a wider tolerance against a second estimate. It records the
// worst difference over tol whenever the vectors are comparable, so the
// metric reads below 1 on every passing operation of every workload.
func (e *env) gate(ref, approx []float64, converged bool, tol float64) error {
	if !converged {
		return errors.New("result not converged")
	}
	if len(ref) != len(approx) {
		return fmt.Errorf("got %d scores for %d vertices", len(approx), len(ref))
	}
	worst := betweenness.Compare(ref, approx, tol).MaxAbs
	e.m.add("kadabra.max_err_over_tol", worst/tol)
	if worst > tol {
		return fmt.Errorf("max |error| %.5f exceeds %.5f", worst, tol)
	}
	return nil
}
