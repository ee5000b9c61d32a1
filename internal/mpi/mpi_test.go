package mpi

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func TestSendRecvBasic(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.sendRaw(1, 7, []byte("hello"))
		}
		data, err := c.recvRaw(0, 7)
		if err != nil {
			return err
		}
		if string(data) != "hello" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBufferReuse(t *testing.T) {
	// sendRaw must copy: mutating the buffer after the send must not affect
	// the delivered message.
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.sendRaw(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99
			return nil
		}
		data, err := c.recvRaw(0, 0)
		if err != nil {
			return err
		}
		if data[0] != 1 {
			return fmt.Errorf("send did not copy: %v", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingPerTag(t *testing.T) {
	const N = 200
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < N; i++ {
				if err := c.sendRaw(1, 5, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < N; i++ {
			data, err := c.recvRaw(0, 5)
			if err != nil {
				return err
			}
			if data[0] != byte(i) {
				return fmt.Errorf("out of order: got %d want %d", data[0], i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsDoNotCrossMatch(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.sendRaw(1, 1, []byte("a")); err != nil {
				return err
			}
			return c.sendRaw(1, 2, []byte("b"))
		}
		// Receive tag 2 first even though tag 1 was sent first.
		b, err := c.recvRaw(0, 2)
		if err != nil {
			return err
		}
		a, err := c.recvRaw(0, 1)
		if err != nil {
			return err
		}
		if string(a) != "a" || string(b) != "b" {
			return fmt.Errorf("cross-matched tags: %q %q", a, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvBeforeSend(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 1 {
			req := c.irecvRaw(0, 3)
			if req.Test() {
				return fmt.Errorf("request completed before send")
			}
			data, err := req.Wait()
			if err != nil {
				return err
			}
			if string(data) != "x" {
				return fmt.Errorf("got %q", data)
			}
			return nil
		}
		time.Sleep(20 * time.Millisecond)
		return c.sendRaw(1, 3, []byte("x"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArgs(t *testing.T) {
	// Every rooted collective rejects an out-of-range root up front,
	// before any traffic, so a bad call cannot wedge the other ranks.
	err := RunLocal(1, func(c *Comm) error {
		for _, root := range []int{-1, 1, 5} {
			if _, err := c.Bcast(root, nil); err == nil {
				return fmt.Errorf("bcast root %d accepted", root)
			}
			if _, err := c.IBcast(root, nil).Wait(); err == nil {
				return fmt.Errorf("ibcast root %d accepted", root)
			}
			if _, err := c.ReduceMerge(root, nil, sumInt64); err == nil {
				return fmt.Errorf("reduce root %d accepted", root)
			}
			if _, err := c.IReduceMerge(root, nil, sumInt64).Wait(); err == nil {
				return fmt.Errorf("ireduce root %d accepted", root)
			}
			if _, err := c.gather(root, nil); err == nil {
				return fmt.Errorf("gather root %d accepted", root)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
		var entered atomic.Int32
		err := RunLocal(p, func(c *Comm) error {
			entered.Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if int(entered.Load()) != p {
				return fmt.Errorf("barrier released before all %d entered (%d)", p, entered.Load())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestIBarrierOverlap(t *testing.T) {
	// Rank 0 enters late; rank 1's IBarrier must not complete early, and
	// rank 1 must be able to do work while waiting.
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(50 * time.Millisecond)
			return c.Barrier()
		}
		req := c.IBarrier()
		work := 0
		for !req.Test() {
			work++
		}
		if work == 0 {
			return fmt.Errorf("no overlap achieved")
		}
		_, err := req.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < p; root += 2 {
			payload := []byte(fmt.Sprintf("msg-from-%d", root))
			err := RunLocal(p, func(c *Comm) error {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				out, err := c.Bcast(root, in)
				if err != nil {
					return err
				}
				if !bytes.Equal(out, payload) {
					return fmt.Errorf("rank %d got %q", c.Rank(), out)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestReduceSumAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
		if err := RunLocal(p, checkReduceAllRoots); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestIReduceOverlapAndSnapshot(t *testing.T) {
	err := RunLocal(4, func(c *Comm) error {
		vec := []int64{int64(c.Rank() + 1)}
		buf := EncodeInt64s(nil, vec)
		req := c.IReduceMerge(0, buf, sumInt64)
		// Mutate the buffer immediately: IReduceMerge must have snapshotted.
		buf[0] = 0xFF
		res, err := req.Wait()
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			got := make([]int64, 1)
			DecodeInt64s(got, res)
			if got[0] != 1+2+3+4 {
				return fmt.Errorf("ireduce got %d, want 10", got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	err := RunLocal(6, func(c *Comm) error {
		buf := EncodeInt64s(nil, []int64{1})
		res, err := allreduceSum(c, buf)
		if err != nil {
			return err
		}
		got := make([]int64, 1)
		DecodeInt64s(got, res)
		if got[0] != 6 {
			return fmt.Errorf("rank %d: allreduce got %d", c.Rank(), got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	err := RunLocal(4, func(c *Comm) error {
		parts, err := c.gather(2, []byte{byte(c.Rank() * 10)})
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if parts != nil {
				return fmt.Errorf("non-root got data")
			}
			return nil
		}
		for r := 0; r < 4; r++ {
			if parts[r][0] != byte(r*10) {
				return fmt.Errorf("gather slot %d = %d", r, parts[r][0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIBcastTerminationFlagPattern(t *testing.T) {
	// The exact pattern of paper Alg. 1 lines 15-17: root broadcasts the
	// termination flag while everyone overlaps with work.
	err := RunLocal(3, func(c *Comm) error {
		var req *Request
		if c.Rank() == 0 {
			req = c.IBcast(0, EncodeInt64s(nil, []int64{1}))
		} else {
			req = c.IBcast(0, nil)
		}
		for !req.Test() {
		}
		data, err := req.Wait()
		if err != nil {
			return err
		}
		flag := make([]int64, 1)
		DecodeInt64s(flag, data)
		if flag[0] != 1 {
			return fmt.Errorf("rank %d: flag lost", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitByParity(t *testing.T) {
	err := RunLocal(6, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		if sub.glob[sub.Rank()] != c.Rank() {
			return fmt.Errorf("world rank mapping broken")
		}
		// Ranks must be ordered by key (= parent rank here).
		want := c.Rank() / 2
		if sub.Rank() != want {
			return fmt.Errorf("sub rank %d, want %d", sub.Rank(), want)
		}
		// The subcommunicator must be fully functional.
		buf := EncodeInt64s(nil, []int64{int64(c.Rank())})
		res, err := allreduceSum(sub, buf)
		if err != nil {
			return err
		}
		got := make([]int64, 1)
		DecodeInt64s(got, res)
		wantSum := int64(0 + 2 + 4)
		if c.Rank()%2 == 1 {
			wantSum = 1 + 3 + 5
		}
		if got[0] != wantSum {
			return fmt.Errorf("split allreduce got %d want %d", got[0], wantSum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitOptOut(t *testing.T) {
	err := RunLocal(4, func(c *Comm) error {
		color := 0
		if c.Rank() != 0 {
			color = -1
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if sub == nil || sub.Size() != 1 {
				return fmt.Errorf("rank 0 expected singleton comm")
			}
		} else if sub != nil {
			return fmt.Errorf("opted-out rank got a comm")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitContextIsolation(t *testing.T) {
	// Traffic on a subcommunicator must not match traffic on the parent.
	err := RunLocal(2, func(c *Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := sub.sendRaw(1, 9, []byte("sub")); err != nil {
				return err
			}
			return c.sendRaw(1, 9, []byte("parent"))
		}
		// Receive on parent first; must get the parent message even though
		// the sub message arrived first.
		p, err := c.recvRaw(0, 9)
		if err != nil {
			return err
		}
		s, err := sub.recvRaw(0, 9)
		if err != nil {
			return err
		}
		if string(p) != "parent" || string(s) != "sub" {
			return fmt.Errorf("context leak: parent=%q sub=%q", p, s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalSplitLikePaper(t *testing.T) {
	// Paper §IV-E: split world into per-node local comms, plus a global comm
	// of node leaders. 8 ranks, 2 per "node".
	const ranksPerNode = 2
	err := RunLocal(8, func(c *Comm) error {
		node := c.Rank() / ranksPerNode
		local, err := c.Split(node, c.Rank())
		if err != nil {
			return err
		}
		leaderColor := -1
		if local.Rank() == 0 {
			leaderColor = 0
		}
		global, err := c.Split(leaderColor, c.Rank())
		if err != nil {
			return err
		}
		// Local aggregation then global aggregation, as in the paper.
		buf := EncodeInt64s(nil, []int64{1})
		lres, err := local.ReduceMerge(0, buf, sumInt64)
		if err != nil {
			return err
		}
		if local.Rank() == 0 {
			gres, err := global.ReduceMerge(0, lres, sumInt64)
			if err != nil {
				return err
			}
			if global.Rank() == 0 {
				got := make([]int64, 1)
				DecodeInt64s(got, gres)
				if got[0] != 8 {
					return fmt.Errorf("hierarchical sum %d, want 8", got[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceRandomVectorsProperty(t *testing.T) {
	f := func(seed uint64, pRaw uint8, lenRaw uint8) bool {
		p := int(pRaw%7) + 1
		vecLen := int(lenRaw%32) + 1
		r := rng.NewRand(seed)
		inputs := make([][]int64, p)
		want := make([]int64, vecLen)
		for i := range inputs {
			inputs[i] = make([]int64, vecLen)
			for j := range inputs[i] {
				inputs[i][j] = int64(r.Intn(1000)) - 500
				want[j] += inputs[i][j]
			}
		}
		ok := true
		err := RunLocal(p, func(c *Comm) error {
			buf := EncodeInt64s(nil, inputs[c.Rank()])
			res, err := c.ReduceMerge(0, buf, sumInt64)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got := make([]int64, vecLen)
				DecodeInt64s(got, res)
				for j := range got {
					if got[j] != want[j] {
						ok = false
					}
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCollectiveAndSampling(t *testing.T) {
	// Emulates Alg. 1's structure: every rank starts an IReduceMerge, keeps
	// "sampling" (incrementing a local counter) until done, repeatedly.
	const rounds = 20
	err := RunLocal(4, func(c *Comm) error {
		total := int64(0)
		for round := 0; round < rounds; round++ {
			buf := EncodeInt64s(nil, []int64{1, int64(round)})
			req := c.IReduceMerge(0, buf, sumInt64)
			for !req.Test() {
				total++ // overlapped work
			}
			res, err := req.Wait()
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got := make([]int64, 2)
				DecodeInt64s(got, res)
				if got[0] != 4 || got[1] != int64(4*round) {
					return fmt.Errorf("round %d: got %v", round, got)
				}
			}
			var stop int64
			if round == rounds-1 {
				stop = 1
			}
			flag := EncodeInt64s(nil, []int64{stop})
			var breq *Request
			if c.Rank() == 0 {
				breq = c.IBcast(0, flag)
			} else {
				breq = c.IBcast(0, nil)
			}
			if _, err := breq.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(vs []int64) bool {
		buf := EncodeInt64s(nil, vs)
		got := make([]int64, len(vs))
		DecodeInt64s(got, buf)
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReduceLocal8x4096(b *testing.B) {
	vec := make([]int64, 4096)
	for i := range vec {
		vec[i] = int64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := RunLocal(8, func(c *Comm) error {
			buf := EncodeInt64s(nil, vec)
			_, err := c.ReduceMerge(0, buf, sumInt64)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBarrierLocal16(b *testing.B) {
	w := NewLocalWorld(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, 16)
		for r := 0; r < 16; r++ {
			go func(r int) {
				done <- w.Comm(r).Barrier()
			}(r)
		}
		for r := 0; r < 16; r++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
}
