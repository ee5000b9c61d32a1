package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/graph"
)

// Input sizes. They are fixed so runs differ only by seed; the run-time
// budget of the whole benchmark (four workloads, dozens of runs) sets them,
// and README.md records how they compare with the sizes first proposed.
const (
	socialScale = 12 // R-MAT 2^12 vertices, LCC ~3k: exact Brandes under 1 s on 2 CPUs
	// Edge factor 8, not 16: at 16 the LCC sits on the diameter 5/6
	// boundary, where the exact iFUB phase 1 takes 1 ms on some seeds and
	// up to 220 ms on others, so phase 1 rather than sampling would set the
	// spread between seeds. At 8 it stays under 5 ms on every seed tried.
	socialEdgeFactor = 8
	roadSide         = 40 // 40x40 lattice, LCC ~1.6k vertices, vertex diameter ~100
	roadMaxWeight    = 10
	bigScale         = 17 // R-MAT 2^17 vertices plus a spanning chain, ~2M edges
	bigEdgeFactor    = 16
)

// writeSocialInput writes the raw R-MAT edge list the social-shm and service
// workloads load; the program reduces it to its largest component.
func writeSocialInput(path string, seed uint64) error {
	return writeFile(path, func(w *bufio.Writer) error {
		return graph.WriteEdgeList(w, graph.RMAT(graph.Graph500(socialScale, socialEdgeFactor, seed)))
	})
}

// roadInput is the weighted road lattice road-weighted writes to its input
// file, before the largest-component reduction.
func roadInput(e *env) *graph.WGraph {
	lattice := graph.Road(graph.RoadParams{Rows: roadSide, Cols: roadSide, DeleteProb: 0.1, DiagonalProb: 0.03, Seed: e.derive("road", 0)})
	return graph.RandomWeights(lattice, roadMaxWeight, e.derive("road-weights", 0))
}

// writeBigInput streams the big-tcp edge list: R-MAT plus the chain
// (i, i+1) that makes it one component, as `graphgen -stream -connect`
// writes it. It returns the file size.
func writeBigInput(path string, seed uint64) (int64, error) {
	n := 1 << bigScale
	err := writeFile(path, func(w *bufio.Writer) error {
		fmt.Fprintf(w, "# undirected graph: %d nodes (streamed rmat, may contain duplicates/self loops)\n", n)
		emit := func(u, v graph.Node) error {
			_, err := fmt.Fprintf(w, "%d %d\n", u, v)
			return err
		}
		if err := graph.StreamRMAT(graph.Graph500(bigScale, bigEdgeFactor, seed), emit); err != nil {
			return err
		}
		for i := 0; i+1 < n; i++ {
			if err := emit(graph.Node(i), graph.Node(i+1)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func writeFile(path string, fill func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileMB(path string) (float64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(st.Size()) / 1e6, nil
}

// reference returns the reference scores stored under key — the graph
// digest, plus the parameters when the scores are an estimate — computing
// and storing them on first use. Each run computes them before its set-up,
// never inside a timed region; a later run on the same seed reads them back.
func (e *env) reference(key string, compute func() ([]float64, error)) ([]float64, error) {
	path := filepath.Join(e.build, "ref", strings.TrimPrefix(key, "sha256:")+".f64")
	if data, err := os.ReadFile(path); err == nil && len(data)%8 == 0 {
		scores := make([]float64, len(data)/8)
		for i := range scores {
			scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		return scores, nil
	}
	scores, err := compute()
	if err != nil {
		return nil, err
	}
	data := make([]byte, 8*len(scores))
	for i, s := range scores {
		binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(s))
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, err
	}
	return scores, os.Rename(tmp, path)
}
