package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// minPairs is the fewest parent/change pairs the paired rule accepts.
const minPairs = 10

// loadSide reads a result file, or every *.json result file in a directory.
func loadSide(path string) ([]*result, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*result
	for _, f := range files {
		r, err := readResult(f)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// verdict applies the paired rule: the change is better (worse) when it
// wins (loses) at least nine tenths of the pairs, ties counting for
// neither, and the medians differ by more than the parent's own quartile
// spread. Anything else, or fewer than minPairs pairs, is unresolved.
func verdict(base, change []float64, pairs [][2]float64, better string) (label string, wins, losses int) {
	for _, p := range pairs {
		d := p[1] - p[0]
		if better == "lower" {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	if len(pairs) < minPairs {
		return "unresolved", wins, losses
	}
	q1, mb, q3 := quartiles(base)
	mc := median(change)
	gain := mc - mb
	if better == "lower" {
		gain = -gain
	}
	need := 0.9 * float64(len(pairs))
	switch {
	case float64(wins) >= need && gain > q3-q1:
		return "better", wins, losses
	case float64(losses) >= need && -gain > q3-q1:
		return "worse", wins, losses
	}
	return "unresolved", wins, losses
}

// compareMain implements `compare BASE CHANGE`: each side is a result file
// or a directory of them. Runs pair up by workload, traced flag and seed.
// With several runs per side a metric's distribution is its per-run values;
// with one run per side it is that run's per-operation samples, and the
// verdict stays unresolved for want of pairs.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare BASE CHANGE (result files or directories)")
	}
	base, err := loadSide(args[0])
	if err != nil {
		return err
	}
	change, err := loadSide(args[1])
	if err != nil {
		return err
	}
	type key struct {
		workload string
		trace    bool
	}
	group := func(rs []*result) map[key][]*result {
		m := map[key][]*result{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			m[k] = append(m[k], r)
		}
		return m
	}
	bg, cg := group(base), group(change)
	var keys []key
	for k := range bg {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("no workload appears on both sides")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	for _, k := range keys {
		bs, cs := bg[k], cg[k]
		fmt.Fprintf(w, "== %s (trace=%v): %d base run(s), %d change run(s); base %s, change %s\n",
			k.workload, k.trace, len(bs), len(cs), describeMeta(bs), describeMeta(cs))
		fmt.Fprintf(w, "%-28s %-8s %12s %12s %12s %5s | %12s %12s %12s %5s | %-9s %s\n",
			"metric", "unit", "base.q1", "base.med", "base.q3", "n", "chg.q1", "chg.med", "chg.q3", "n", "verdict", "pairs w/l")
		for _, name := range sharedMetrics(bs, cs) {
			bv, cv := distribution(bs, name), distribution(cs, name)
			pairs := pairBySeed(bs, cs, name)
			s := bs[0].Metrics[name]
			label, wins, losses := verdict(bv, cv, pairs, s.Better)
			bq1, bm, bq3 := quartiles(bv)
			cq1, cm, cq3 := quartiles(cv)
			fmt.Fprintf(w, "%-28s %-8s %12.6g %12.6g %12.6g %5d | %12.6g %12.6g %12.6g %5d | %-9s %d/%d of %d\n",
				name, s.Unit, bq1, bm, bq3, len(bv), cq1, cm, cq3, len(cv), label, wins, losses, len(pairs))
		}
	}
	return nil
}

func describeMeta(rs []*result) string {
	m := rs[0].Meta
	return fmt.Sprintf("%s nproc=%d gomaxprocs=%d %s", shortCommit(m.Commit), m.NumCPU, m.GOMAXPROCS, m.GoVersion)
}

func shortCommit(c string) string {
	if len(c) > 12 {
		return c[:12]
	}
	return c
}

// sharedMetrics lists, sorted, the metrics every run on both sides has.
func sharedMetrics(bs, cs []*result) []string {
	count := map[string]int{}
	for _, r := range append(append([]*result(nil), bs...), cs...) {
		for name := range r.Metrics {
			count[name]++
		}
	}
	var out []string
	for name, n := range count {
		if n == len(bs)+len(cs) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// distribution is a metric's per-run values, or the single run's samples.
func distribution(rs []*result, name string) []float64 {
	if len(rs) == 1 {
		return rs[0].Metrics[name].Samples
	}
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// pairBySeed pairs the base and change runs that share a seed.
func pairBySeed(bs, cs []*result, name string) [][2]float64 {
	bySeed := map[uint64]*result{}
	for _, r := range bs {
		bySeed[r.Seed] = r
	}
	var out [][2]float64
	for _, c := range cs {
		if b, ok := bySeed[c.Seed]; ok {
			out = append(out, [2]float64{b.Metrics[name].Value, c.Metrics[name].Value})
		}
	}
	return out
}
