package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Format identification for the interchange formats this package reads.
// The binary BCSR v2 snapshot announces itself with a magic number; the three
// text formats are sniffed from the writers' header comments when present
// and from the field count of the first data line otherwise. An edge list
// and an arc list are syntactically identical ("u v" per line), so a
// headerless two-column file detects as FormatEdgeList — callers that care
// about direction (bcapprox -directed, the server's workload kinds) treat
// that as "two-column text" and impose the interpretation themselves.

// Format names one of the graph interchange formats.
type Format int

const (
	// FormatUnknown reports that no format could be determined.
	FormatUnknown Format = iota
	// FormatEdgeList is the undirected "u v" text format (also matches a
	// headerless arc list — the two are syntactically identical).
	FormatEdgeList
	// FormatArcList is the directed "u v" text format, detected only via
	// the "# directed graph" header comment WriteArcList emits.
	FormatArcList
	// FormatWeightedEdgeList is the "u v weight" text format.
	FormatWeightedEdgeList
	// FormatBCSR2 is the section-based binary CSR snapshot, version 2
	// (undirected, page-aligned, opened by mmap — see internal/bigio).
	FormatBCSR2
)

func (f Format) String() string {
	switch f {
	case FormatBCSR2:
		return "bcsr2"
	case FormatEdgeList:
		return "edge-list"
	case FormatArcList:
		return "arc-list"
	case FormatWeightedEdgeList:
		return "weighted-edge-list"
	default:
		return "unknown"
	}
}

// bcsrMagicPrefix is the high 32 bits shared by every BCSR version's magic
// word; the low 32 bits carry the format version (see BCSRMagic).
const bcsrMagicPrefix = uint32(0x42435352) // "BCSR"

// BCSRMagic returns the little-endian on-disk magic word of BCSR format
// version v: the "BCSR" tag in the high 32 bits, the version in the low 32.
func BCSRMagic(version uint32) uint64 {
	return uint64(bcsrMagicPrefix)<<32 | uint64(version)
}

// ErrBCSRVersion is the errors.Is target of BCSRVersionError.
var ErrBCSRVersion = fmt.Errorf("graph: unsupported BCSR version")

// BCSRVersionError reports a BCSR file of any version other than 2, the
// only one this build reads: the retired heap-loaded v1, a v0, or a v3+
// file from a newer writer. It is the typed "version skew" error
// DetectFormat and the v2 reader return so callers can distinguish it from
// a generic sniff failure.
type BCSRVersionError struct {
	// Version is the version field of the file's magic word.
	Version uint64
	// Hint says which BCSR version this build reads.
	Hint string
}

func (e *BCSRVersionError) Error() string {
	msg := fmt.Sprintf("graph: unsupported BCSR version %d", e.Version)
	if e.Hint != "" {
		msg += " (" + e.Hint + ")"
	}
	return msg
}

// Is reports ErrBCSRVersion as the errors.Is target.
func (e *BCSRVersionError) Is(target error) bool { return target == ErrBCSRVersion }

// detectPeek bounds how far the sniffer looks: enough for a generous run
// of comment lines before the first data line.
const detectPeek = 64 * 1024

// DetectFormat sniffs the graph format at the head of r without consuming
// it: the returned reader replays the full stream, sniffed bytes included,
// so it can be handed straight to the matching Read function. Detection
// rules, in order:
//
//   - the BCSR magic word with version 2 -> FormatBCSR2; a BCSR magic
//     with any other version returns FormatUnknown and a
//     *BCSRVersionError, so version skew is reported as such instead of
//     as a generic sniff failure
//   - a writer header comment ("# directed graph", "# weighted undirected
//     graph", "# undirected graph") -> the corresponding text format
//   - the first non-comment line: 3+ fields where the third parses as a
//     number -> FormatWeightedEdgeList, 2 fields -> FormatEdgeList
//
// An empty or indecipherable head returns FormatUnknown with a nil error;
// a read failure or a version-skewed BCSR head returns an error.
func DetectFormat(r io.Reader) (Format, io.Reader, error) {
	br := bufio.NewReaderSize(r, detectPeek)
	head, err := br.Peek(detectPeek)
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		return FormatUnknown, br, err
	}
	f, err := sniff(head)
	return f, br, err
}

// DetectFormatFile sniffs the format of the file at path by content; the
// file name plays no part.
func DetectFormatFile(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return FormatUnknown, err
	}
	defer f.Close()
	format, _, err := DetectFormat(f)
	return format, err
}

// sniff applies the detection rules to the peeked head bytes.
func sniff(head []byte) (Format, error) {
	if len(head) >= 8 {
		if word := binary.LittleEndian.Uint64(head[:8]); uint32(word>>32) == bcsrMagicPrefix {
			if uint32(word) == 2 {
				return FormatBCSR2, nil
			}
			return FormatUnknown, &BCSRVersionError{
				Version: word & 0xffffffff,
				Hint:    "this build reads v2 only",
			}
		}
	}
	// Walk the head line by line; the last line may be truncated by the
	// peek window, so only use it if it is comment-terminated or we have
	// seen a decisive earlier line.
	for len(head) > 0 {
		line := head
		if i := bytes.IndexByte(head, '\n'); i >= 0 {
			line, head = head[:i], head[i+1:]
		} else {
			head = nil
		}
		text := strings.TrimSpace(string(line))
		if text == "" {
			continue
		}
		if text[0] == '#' || text[0] == '%' {
			switch {
			case strings.Contains(text, "directed graph") && !strings.Contains(text, "undirected"):
				return FormatArcList, nil
			case strings.Contains(text, "weighted undirected graph"):
				return FormatWeightedEdgeList, nil
			case strings.Contains(text, "undirected graph"):
				return FormatEdgeList, nil
			}
			continue
		}
		fields := strings.Fields(text)
		switch {
		case len(fields) >= 3 && isUint(fields[0]) && isUint(fields[1]) && isNumber(fields[2]):
			return FormatWeightedEdgeList, nil
		case len(fields) == 2 && isUint(fields[0]) && isUint(fields[1]):
			return FormatEdgeList, nil
		default:
			return FormatUnknown, nil
		}
	}
	return FormatUnknown, nil
}

// isNumber accepts the weight column: any valid float, integer included.
func isNumber(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

func isUint(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// ErrFormatUnknown reports that DetectFormat could not identify the input;
// returned (wrapped) by the auto-loading helpers.
var ErrFormatUnknown = fmt.Errorf("graph: unrecognized graph format")
