package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"

	"repro/internal/stats"
)

// agg says how a metric's samples reduce to its reported value.
type agg int

const (
	aggMedian agg = iota
	aggP99
	aggMax
)

// metricDef describes one metric the benchmark can report.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Agg    agg
}

// endToEnd are the metrics a user of the system sees; an untraced run prints
// all of them on its result line. Every workload produces every one (the
// result line must carry the full list), so each is defined for all four.
var endToEnd = []metricDef{
	{"solve_s", "s", "lower", aggMedian},
	{"samples_per_s", "1/s", "higher", aggMedian},
	{"setup_s", "s", "lower", aggMedian},
	{"peak_rss_mib", "MiB", "lower", aggMax},
}

// perLayer are the layer metrics a traced run prints on its result line: the
// ones every workload exercises. The layers only some workloads reach are in
// detailMetrics and land in the result and trace files.
var perLayer = []metricDef{
	{"ingest.s", "s", "lower", aggMedian},
	{"ingest.mb_s", "MB/s", "higher", aggMedian},
	{"diameter.vd", "count", "lower", aggMedian},
	{"kadabra.tau", "count", "lower", aggMedian},
	{"kadabra.epochs", "count", "lower", aggMedian},
	{"kadabra.samples_per_s", "1/s", "higher", aggMedian},
	{"kadabra.max_err_over_tol", "ratio", "lower", aggMax},
	{"bfs.rmat.bibfs_us", "us", "lower", aggMedian},
	{"bfs.road.bibfs_us", "us", "lower", aggMedian},
	{"bfs.road.dijkstra_unit_us", "us", "lower", aggMedian},
	{"bfs.road.dijkstra_w10_us", "us", "lower", aggMedian},
	{"trace.overhead", "ratio", "lower", aggMedian},
}

// detailMetrics are reported by the workloads that exercise their layer;
// they go to the result file (and the trace file) but not the result line.
var detailMetrics = []metricDef{
	{"error_rate", "fraction", "lower", aggMedian},
	{"session_s", "s", "lower", aggMedian},
	{"cached_session_ms", "ms", "lower", aggMedian},
	{"poll_ms", "ms", "lower", aggMedian},
	{"poll_p99_ms", "ms", "lower", aggP99},

	{"graph.load_s", "s", "lower", aggMedian},
	{"graph.lcc_s", "s", "lower", aggMedian},

	{"bigio.convert_s", "s", "lower", aggMedian},
	{"bigio.convert_mb_s", "MB/s", "higher", aggMedian},
	{"bigio.runs", "count", "lower", aggMedian},
	{"bigio.merge_passes", "count", "lower", aggMedian},
	{"bigio.bytes_out", "bytes", "lower", aggMedian},
	{"bigio.open_ms", "ms", "lower", aggMedian},
	{"bigio.zero_copy", "bool", "higher", aggMedian},

	{"diameter.s", "s", "lower", aggMedian},

	{"bfs.samples", "count", "lower", aggMedian},
	{"bfs.busy_s", "s", "lower", aggMedian},
	{"bfs.us_per_sample", "us", "lower", aggMedian},
	{"bfs.path_vertices", "count", "lower", aggMedian},

	{"kadabra.calibration_s", "s", "lower", aggMedian},
	{"kadabra.sampling_s", "s", "lower", aggMedian},
	{"kadabra.check_s", "s", "lower", aggMedian},
	{"kadabra.omega", "count", "lower", aggMedian},

	{"epoch.transition_s", "s", "lower", aggMedian},
	{"epoch.kernel_share", "ratio", "higher", aggMedian},

	{"core.epochs", "count", "lower", aggMedian},
	{"core.barrier_s", "s", "lower", aggMedian},
	{"core.reduce_s", "s", "lower", aggMedian},
	{"core.transition_s", "s", "lower", aggMedian},
	{"core.check_s", "s", "lower", aggMedian},
	{"mpi.wire_bytes", "bytes", "lower", aggMedian},
	{"mpi.wire_bytes_per_epoch", "bytes", "lower", aggMedian},
	{"mpi.dense_bytes_per_epoch", "bytes", "lower", aggMedian},

	{"server.upload_s", "s", "lower", aggMedian},
	{"server.status_ms", "ms", "lower", aggMedian},
	{"server.status_p99_ms", "ms", "lower", aggP99},
	{"server.status_wait_p99_ms", "ms", "lower", aggP99},
	{"server.create_ms", "ms", "lower", aggMedian},
	{"server.run_accept_ms", "ms", "lower", aggMedian},
	{"server.queue_s", "s", "lower", aggMedian},
	{"server.result_ms", "ms", "lower", aggMedian},
	{"server.cache_hits", "count", "higher", aggMax},
	{"server.cache_misses", "count", "lower", aggMax},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks the naming rules of the result-line contract: names
// start with a letter or digit and use only [A-Za-z0-9_.-] (at most 64),
// units only [A-Za-z0-9_/%.-] (at most 16), "better" is lower or higher,
// and no name is defined twice.
func validateDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		switch {
		case !nameRE.MatchString(d.Name):
			return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.Name)
		case !unitRE.MatchString(d.Unit):
			return fmt.Errorf("metric %s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
		case d.Better != "lower" && d.Better != "higher":
			return fmt.Errorf("metric %s: better must be lower or higher, got %q", d.Name, d.Better)
		case seen[d.Name]:
			return fmt.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// allDefs is every metric the benchmark knows, keyed by name.
var allDefs = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, list := range [][]metricDef{endToEnd, perLayer, detailMetrics} {
		for _, d := range list {
			m[d.Name] = d
		}
	}
	return m
}()

// collector accumulates metric samples from the workload's goroutines.
type collector struct {
	mu      sync.Mutex
	samples map[string][]float64
}

func newCollector() *collector {
	return &collector{samples: map[string][]float64{}}
}

// add records one sample of a defined metric. An undefined name is a bug in
// the benchmark, not an input error.
func (c *collector) add(name string, v float64) {
	if _, ok := allDefs[name]; !ok {
		panic("bench: undefined metric " + name)
	}
	c.mu.Lock()
	c.samples[name] = append(c.samples[name], v)
	c.mu.Unlock()
}

// summary is one metric's reduction as stored in the result file.
type summary struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Value   float64   `json:"value"`
	N       int       `json:"n"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// summarize reduces every collected series. Non-finite samples are dropped
// (a ratio over a zero time); a metric left with none is omitted.
func (c *collector) summarize() map[string]summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]summary{}
	names := make([]string, 0, len(c.samples))
	for name := range c.samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var xs []float64
		for _, v := range c.samples[name] {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			continue
		}
		d := allDefs[name]
		q1, q2, q3 := quartiles(xs)
		val := q2
		switch d.Agg {
		case aggP99:
			val = stats.Quantile(xs, 0.99)
		case aggMax:
			val = sorted(xs)[len(xs)-1]
		}
		out[name] = summary{Unit: d.Unit, Better: d.Better, Value: val, N: len(xs),
			Q1: q1, Median: q2, Q3: q3, Samples: xs}
	}
	return out
}
