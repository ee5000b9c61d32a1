package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// resultSchema versions the result-file layout; readResult rejects others.
const resultSchema = 1

// runMeta records what a result depends on besides the code's speed.
type runMeta struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Started    string `json:"started"`
}

// result is one run of one workload, as stored in its result file.
type result struct {
	Schema    int                `json:"schema"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Meta      runMeta            `json:"meta"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

func currentMeta(root, started string) runMeta {
	return runMeta{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		Started:    started,
	}
}

// gitCommit reads the checked-out commit from root/.git without running git
// (which would search parent directories); "unknown" outside a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func writeResult(path string, r *result) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readResult loads a result file and checks its schema: the version, the
// metric names and units, and that every summary is internally consistent.
func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r result
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, r.Schema, resultSchema)
	}
	if r.Workload == "" {
		return nil, fmt.Errorf("%s: no workload", path)
	}
	for name, s := range r.Metrics {
		if err := validateDefs([]metricDef{{Name: name, Unit: s.Unit, Better: s.Better}}); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if s.N != len(s.Samples) || s.N == 0 {
			return nil, fmt.Errorf("%s: metric %s has n=%d but %d samples", path, name, s.N, len(s.Samples))
		}
	}
	return &r, nil
}

// lineMetric is one metric on the result line.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// buildLine selects the declared metrics from the run's summaries. A
// declared metric the run did not produce is an error: the line must carry
// every one.
func buildLine(r *result, declared []metricDef) (resultLine, error) {
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]lineMetric{}}
	for _, d := range declared {
		s, ok := r.Metrics[d.Name]
		if !ok {
			return line, fmt.Errorf("workload %s produced no %s", r.Workload, d.Name)
		}
		line.Metrics[d.Name] = lineMetric{Value: s.Value, Unit: d.Unit}
	}
	return line, nil
}
