package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// This file implements the undirected text interchange format: edge lists
// compatible with the SNAP/KONECT style the paper's pipeline consumes, one
// "u v" pair per line, '#' and '%' comment lines ignored, arbitrary
// whitespace. Vertex IDs are remapped densely. The binary format (BCSR v2,
// page-aligned and opened by mmap) lives in internal/bigio.

// ReadEdgeList parses a SNAP/KONECT-style text edge list. IDs found in the
// file are densely renumbered in order of first appearance.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	ids := make(interner)
	var edges [][2]Node
	err := lineScanner(r, func(line int, fields []string) error {
		if len(fields) < 2 {
			return fmt.Errorf("graph: line %d: want at least 2 fields, got %d", line, len(fields))
		}
		u, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: %v", line, err)
		}
		edges = append(edges, [2]Node{ids.intern(u), ids.intern(v)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return FromEdges(len(ids), edges), nil
}

// WriteEdgeList writes g as a text edge list with a comment header.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# undirected graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	var err error
	g.ForEdges(func(u, v Node) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
