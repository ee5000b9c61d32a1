package mpi

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// sumInt64 is the fixed-length MergeOp of these tests: both buffers are
// little-endian int64 vectors of equal length, added elementwise into acc.
func sumInt64(acc, src []byte) ([]byte, error) {
	if len(src) != len(acc) {
		return nil, fmt.Errorf("buffer length mismatch: %d vs %d", len(src), len(acc))
	}
	for i := 0; i+8 <= len(src); i += 8 {
		v := binary.LittleEndian.Uint64(acc[i:]) + binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(acc[i:], v)
	}
	return acc, nil
}

// allreduceSum sums int64 vectors onto rank 0 and broadcasts the result,
// so every rank returns the total.
func allreduceSum(c *Comm, data []byte) ([]byte, error) {
	res, err := c.ReduceMerge(0, data, sumInt64)
	if err != nil {
		return nil, err
	}
	return c.Bcast(0, res)
}

// checkReduceAllRoots reduces to every root of c in turn, through both
// ReduceMerge and IReduceMerge, and checks the sums at the root and the
// nil result everywhere else.
func checkReduceAllRoots(c *Comm) error {
	p := c.Size()
	var wantSum, wantSq int64
	for r := 0; r < p; r++ {
		wantSum += int64(r)
		wantSq += int64(r * r)
	}
	me := int64(c.Rank())
	for root := 0; root < p; root++ {
		buf := EncodeInt64s(nil, []int64{me, 1, me * me, int64(root)})
		blocking, err := c.ReduceMerge(root, buf, sumInt64)
		if err != nil {
			return fmt.Errorf("root %d: %w", root, err)
		}
		nonBlocking, err := c.IReduceMerge(root, buf, sumInt64).Wait()
		if err != nil {
			return fmt.Errorf("root %d: %w", root, err)
		}
		for _, res := range [][]byte{blocking, nonBlocking} {
			if c.Rank() != root {
				if res != nil {
					return fmt.Errorf("root %d: non-root rank %d got data", root, c.Rank())
				}
				continue
			}
			want := []int64{wantSum, int64(p), wantSq, int64(root * p)}
			if len(res) != 8*len(want) {
				return fmt.Errorf("root %d: got %d result bytes, want %d", root, len(res), 8*len(want))
			}
			got := make([]int64, len(want))
			DecodeInt64s(got, res)
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("root %d: got %v, want %v", root, got, want)
				}
			}
		}
	}
	return nil
}

func TestTCPReduceMergeAllSizesAllRoots(t *testing.T) {
	for p := 1; p <= 8; p++ {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runTCP(t, p, checkReduceAllRoots)
		})
	}
}

// concatMerge is a deliberately variable-length MergeOp: it appends src to
// acc with a separator, so the result length depends on the tree shape and
// every contribution must appear exactly once.
func concatMerge(acc, src []byte) ([]byte, error) {
	acc = append(acc, ';')
	return append(acc, src...), nil
}

func TestReduceMergeVariableLengths(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < p; root += 2 {
			err := RunLocal(p, func(c *Comm) error {
				// Rank r contributes a token of length r+1.
				token := strings.Repeat(string(rune('a'+c.Rank())), c.Rank()+1)
				res, err := c.ReduceMerge(root, []byte(token), concatMerge)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if res != nil {
						return fmt.Errorf("non-root got data")
					}
					return nil
				}
				got := string(res)
				for r := 0; r < p; r++ {
					want := strings.Repeat(string(rune('a'+r)), r+1)
					if n := strings.Count(got, want); n < 1 {
						return fmt.Errorf("contribution of rank %d missing in %q", r, got)
					}
				}
				// Total payload length: all tokens plus p-1 separators.
				wantLen := p - 1
				for r := 0; r < p; r++ {
					wantLen += r + 1
				}
				if len(got) != wantLen {
					return fmt.Errorf("merged length %d, want %d (%q)", len(got), wantLen, got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestIReduceMergeSnapshotAndOverlap(t *testing.T) {
	err := RunLocal(4, func(c *Comm) error {
		buf := []byte{byte('0' + c.Rank())}
		req := c.IReduceMerge(0, buf, concatMerge)
		// Mutate the buffer immediately: IReduceMerge must have snapshotted.
		buf[0] = 'X'
		res, err := req.Wait()
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			got := string(res)
			for r := 0; r < 4; r++ {
				if !strings.Contains(got, string(rune('0'+r))) {
					return fmt.Errorf("rank %d contribution missing in %q", r, got)
				}
			}
			if strings.Contains(got, "X") {
				return fmt.Errorf("mutated buffer leaked into reduction: %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceMergeOpError(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		bad := func(acc, src []byte) ([]byte, error) {
			return nil, fmt.Errorf("boom")
		}
		_, err := c.ReduceMerge(0, []byte{1}, bad)
		if c.Rank() == 0 {
			if err == nil {
				return fmt.Errorf("merge error not propagated at root")
			}
			return nil
		}
		// Leaf ranks only send; they may or may not see an error.
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
