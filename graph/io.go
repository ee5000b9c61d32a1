package graph

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bigio"
	igraph "repro/internal/graph"
)

// Format names one of the graph interchange formats DetectFormat can
// identify.
type Format = igraph.Format

// The detectable interchange formats. A headerless two-column text file
// detects as FormatEdgeList even when the caller means it as an arc list —
// the two are syntactically identical; FormatArcList is only reported when
// the "# directed graph" header comment WriteArcList emits is present.
const (
	FormatUnknown          = igraph.FormatUnknown
	FormatEdgeList         = igraph.FormatEdgeList
	FormatArcList          = igraph.FormatArcList
	FormatWeightedEdgeList = igraph.FormatWeightedEdgeList
	FormatBCSR2            = igraph.FormatBCSR2
)

// ErrFormatUnknown reports that DetectFormat could not identify the input.
var ErrFormatUnknown = igraph.ErrFormatUnknown

// ErrBCSRVersion is the errors.Is target for BCSR version skew: a BCSR
// file of any version other than 2, the only one this build reads.
var ErrBCSRVersion = igraph.ErrBCSRVersion

// BCSRVersionError carries the offending version and a hint on what this
// build reads.
type BCSRVersionError = igraph.BCSRVersionError

// DetectFormat sniffs the graph format at the head of r without consuming
// it: the returned reader replays the full stream, sniffed bytes included,
// so it can be handed straight to the matching Read function. It
// recognizes the BCSR v2 magic, the header comments the Write functions emit,
// and falls back to the field count of the first data line (3+ integer
// fields = weighted edge list, 2 = edge list).
func DetectFormat(r io.Reader) (Format, io.Reader, error) { return igraph.DetectFormat(r) }

// DetectFormatFile sniffs the format of the file at path by content.
func DetectFormatFile(path string) (Format, error) { return igraph.DetectFormatFile(path) }

// LoadFile reads a graph from path by content. A BCSR v2 file (whatever
// its name) opens through the mmap-backed loader — O(1), adjacency served
// from the mapping, see OpenMapped — and the returned Graph keeps the
// mapping alive. Any other ".bcsr" path is an error, never parsed as
// text; everything else is read as a text edge list.
func LoadFile(path string) (*Graph, error) {
	format, err := igraph.DetectFormatFile(path)
	if err != nil {
		return nil, err
	}
	switch {
	case format == FormatBCSR2:
		m, err := bigio.Open(path)
		if err != nil {
			return nil, err
		}
		return m.Graph(), nil
	case strings.HasSuffix(path, ".bcsr"):
		return nil, fmt.Errorf("%w: %s is not BCSR v2 (content sniffs as %s)", ErrFormatUnknown, path, format)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return igraph.ReadEdgeList(f)
}

// SaveFile writes a graph to path, choosing the format by extension: a
// ".bcsr" path gets BCSR v2 through WriteBCSR2File (tmp -> fsync ->
// rename), the format LoadFile maps; anything else gets a text edge list.
func SaveFile(path string, g *Graph) error {
	if strings.HasSuffix(path, ".bcsr") {
		return WriteBCSR2File(path, g, WriteOptions{})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := igraph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadEdgeList parses a whitespace-separated text edge list ('#' and '%'
// start comments).
func ReadEdgeList(r io.Reader) (*Graph, error) { return igraph.ReadEdgeList(r) }

// WriteEdgeList writes g as a text edge list, one edge per line.
func WriteEdgeList(w io.Writer, g *Graph) error { return igraph.WriteEdgeList(w, g) }

// ReadArcList parses a directed text arc list: one "u v" arc per line
// meaning u -> v, with the same comment and renumbering conventions as
// ReadEdgeList. Self loops and duplicate arcs are dropped.
func ReadArcList(r io.Reader) (*Digraph, error) { return igraph.ReadArcList(r) }

// WriteArcList writes g as a directed text arc list, one arc per line.
func WriteArcList(w io.Writer, g *Digraph) error { return igraph.WriteArcList(w, g) }

// ReadWeightedEdgeList parses a weighted text edge list: one "u v weight"
// line per undirected edge, weights positive integers below 2^32. Duplicate
// edges keep the minimum weight; zero or negative weights are rejected.
func ReadWeightedEdgeList(r io.Reader) (*WGraph, error) { return igraph.ReadWeightedEdgeList(r) }

// WriteWeightedEdgeList writes g as a weighted text edge list.
func WriteWeightedEdgeList(w io.Writer, g *WGraph) error { return igraph.WriteWeightedEdgeList(w, g) }

// LoadDigraphFile reads a directed arc list from path.
func LoadDigraphFile(path string) (*Digraph, error) { return igraph.LoadDigraphFile(path) }

// SaveDigraphFile writes a digraph to path as a text arc list.
func SaveDigraphFile(path string, g *Digraph) error { return igraph.SaveDigraphFile(path, g) }

// LoadWGraphFile reads a weighted edge list from path.
func LoadWGraphFile(path string) (*WGraph, error) { return igraph.LoadWGraphFile(path) }

// SaveWGraphFile writes a weighted graph to path as a text edge list.
func SaveWGraphFile(path string, g *WGraph) error { return igraph.SaveWGraphFile(path, g) }
