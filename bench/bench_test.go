package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{0.5, 9, 2.25, 7, 7, 1}, 0.875, 4.625, 7.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 60, 90},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.data); m != q2 {
			t.Errorf("median(%v) = %v, quartile 2 = %v", c.data, m, q2)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestMetricNameValidation(t *testing.T) {
	all := append(append(append([]metricDef(nil), endToEnd...), perLayer...), detailMetrics...)
	if err := validateDefs(all); err != nil {
		t.Fatalf("the benchmark's own metrics: %v", err)
	}
	bad := []metricDef{
		{Name: "", Unit: "s", Better: "lower"},
		{Name: ".leading_dot", Unit: "s", Better: "lower"},
		{Name: "has space", Unit: "s", Better: "lower"},
		{Name: "slash/name", Unit: "s", Better: "lower"},
		{Name: strings.Repeat("a", 65), Unit: "s", Better: "lower"},
		{Name: "ok", Unit: "", Better: "lower"},
		{Name: "ok", Unit: "seconds per op!", Better: "lower"},
		{Name: "ok", Unit: strings.Repeat("u", 17), Better: "lower"},
		{Name: "ok", Unit: "s", Better: "smaller"},
	}
	for _, d := range bad {
		if err := validateDefs([]metricDef{d}); err == nil {
			t.Errorf("validateDefs accepted %+v", d)
		}
	}
	good := []metricDef{
		{Name: strings.Repeat("a", 64), Unit: "1/s", Better: "higher"},
		{Name: "0x.y_z-w", Unit: "%", Better: "lower"},
	}
	if err := validateDefs(good); err != nil {
		t.Errorf("validateDefs rejected valid names: %v", err)
	}
	if err := validateDefs([]metricDef{good[0], good[0]}); err == nil {
		t.Error("validateDefs accepted a duplicate name")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables
// the runs print from in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, code %s", got, workloadNames())
	}
	for _, c := range []struct {
		json []metric
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, code %d", len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			d := c.code[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("BENCHMARK.json %+v, code %s %s %s", m, d.Name, d.Unit, d.Better)
			}
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	c := newCollector()
	for _, v := range []float64{0.3, 0.1, 0.2, math.Inf(1)} {
		c.add("solve_s", v)
	}
	c.add("peak_rss_mib", 12.5)
	c.add("poll_p99_ms", 1)
	want := &result{
		Schema: resultSchema, Workload: "social-shm", Seed: 7, Seconds: 10,
		Meta:    runMeta{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "abc", Started: "2026-01-01T00:00:00Z"},
		Correct: true, Attempted: 3, Metrics: c.summarize(),
	}
	if s := want.Metrics["solve_s"]; s.N != 3 || s.Value != 0.2 || s.Unit != "s" {
		t.Fatalf("solve_s summary %+v: want 3 finite samples, median 0.2", s)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResult(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	line, err := buildLine(got, endToEnd[:1])
	if err != nil || line.Metrics["solve_s"] != (lineMetric{Value: 0.2, Unit: "s"}) {
		t.Errorf("buildLine = %+v, %v", line, err)
	}
	if _, err := buildLine(got, endToEnd); err == nil {
		t.Error("buildLine accepted a run missing declared metrics")
	}

	for name, mutate := range map[string]func(string) string{
		"schema":        func(s string) string { return strings.Replace(s, `"schema": 1`, `"schema": 2`, 1) },
		"unknown field": func(s string) string { return strings.Replace(s, `"schema": 1`, `"schema": 1, "extra": 0`, 1) },
		"sample count":  func(s string) string { return strings.Replace(s, `"n": 3`, `"n": 4`, 1) },
		"bad unit":      func(s string) string { return strings.Replace(s, `"unit": "MiB"`, `"unit": "M i B"`, 1) },
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(bad, []byte(mutate(string(data))), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readResult(bad); err == nil {
			t.Errorf("readResult accepted a file with a bad %s", name)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.2, 9.8, 10.1, 9.9, 10, 10.3, 9.7, 10, 10.1}
	pairsOf := func(change []float64) [][2]float64 {
		var out [][2]float64
		for i := range base {
			out = append(out, [2]float64{base[i], change[i]})
		}
		return out
	}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, b := range base {
		faster[i], slower[i] = b*0.8, b*1.2
	}
	if got, _, _ := verdict(base, faster, pairsOf(faster), "lower"); got != "better" {
		t.Errorf("20%% faster on every pair: %s, want better", got)
	}
	if got, _, _ := verdict(base, slower, pairsOf(slower), "lower"); got != "worse" {
		t.Errorf("20%% slower on every pair: %s, want worse", got)
	}
	if got, _, _ := verdict(base, faster, pairsOf(faster), "higher"); got != "worse" {
		t.Errorf("lower value of a higher-is-better metric: %s, want worse", got)
	}
	if got, _, _ := verdict(base, base, pairsOf(base), "lower"); got != "unresolved" {
		t.Errorf("identical runs: %s, want unresolved", got)
	}
	if got, _, _ := verdict(base[:5], faster[:5], pairsOf(faster)[:5], "lower"); got != "unresolved" {
		t.Errorf("five pairs: %s, want unresolved", got)
	}
}

func TestSelfTime(t *testing.T) {
	origin := time.Unix(0, 0)
	at := func(ms int) time.Time { return origin.Add(time.Duration(ms) * time.Millisecond) }
	tr := newTracer(origin)
	root := tr.reserve()
	tr.record(root, "child", at(10), at(30), "", nil)
	tr.record(root, "child", at(20), at(40), "", nil)  // overlaps the first
	tr.record(root, "child", at(90), at(120), "", nil) // runs past the parent
	tr.finish(root, 0, "root", at(0), at(100), "", nil)
	self := selfTime(tr.spans)
	if got, want := self["root"], 60*time.Millisecond; got != want {
		t.Errorf("root self time %v, want %v", got, want)
	}
	if got, want := self["child"], 70*time.Millisecond; got != want {
		t.Errorf("child self time %v, want %v", got, want)
	}
}

func TestRouteName(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{"POST", "/graphs?name=social", "upload"},
		{"GET", "/stats", "stats"},
		{"POST", "/sessions", "create"},
		{"GET", "/sessions/s1", "status"},
		{"DELETE", "/sessions/s1", "delete"},
		{"POST", "/sessions/s1/run", "run"},
		{"GET", "/sessions/s1/result?estimates=1", "result"},
	} {
		if got := routeName(c.method, c.path); got != c.want {
			t.Errorf("routeName(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}
