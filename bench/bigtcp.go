package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/betweenness"
	"repro/graph"
	"repro/internal/core"
	"repro/internal/kadabra"
	"repro/internal/mpi"
)

const (
	bigEps     = 0.007
	bigRanks   = 2
	convertMem = 8 << 20 // small enough that the converter spills sorted runs
)

// runBigTCP is big-tcp: the text edge list converted out of core to BCSR
// v2, mapped by each rank, and estimated by a 2-rank TCP world with one
// sampling thread per rank.
func runBigTCP(e *env) error {
	input := e.path("big.txt")
	size, err := writeBigInput(input, e.derive("big", 0))
	if err != nil {
		return err
	}
	mb := float64(size) / 1e6
	out := e.path("big.bcsr")

	convert := func() error {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		var st *graph.ConvertStats
		d, err := e.tr.timed(0, "bigio.convert", func(int64) error {
			st, err = graph.ConvertEdgeList(f, out, graph.ConvertOptions{MemBytes: convertMem})
			return err
		})
		if err != nil {
			return err
		}
		e.m.add("bigio.convert_s", d.Seconds())
		e.m.add("bigio.convert_mb_s", mb/d.Seconds())
		e.m.add("bigio.runs", float64(st.Runs))
		e.m.add("bigio.merge_passes", float64(st.MergePasses))
		e.m.add("bigio.bytes_out", float64(st.BytesOut))
		return nil
	}

	ref, wantDigest, err := bigReference(e, input)
	if err != nil {
		return err
	}
	e.resetPeak()

	ranks, err := repeatSetup(e, func() ([bigRanks]*graph.Mapped, func(), error) {
		var ms [bigRanks]*graph.Mapped
		release := func() {
			for _, m := range ms {
				if m != nil {
					m.Close()
				}
			}
		}
		start := time.Now()
		if err := convert(); err != nil {
			return ms, nil, err
		}
		for r := range ms {
			var err error
			d, err := e.tr.timed(0, "bigio.open", func(int64) error {
				ms[r], err = graph.OpenMapped(out)
				return err
			})
			if err != nil {
				release()
				return ms, nil, err
			}
			e.m.add("bigio.open_ms", d.Seconds()*1e3)
		}
		total := time.Since(start).Seconds()
		e.m.add("ingest.s", total)
		e.m.add("ingest.mb_s", mb/total)
		return ms, release, nil
	}, func(ms [bigRanks]*graph.Mapped) error {
		return e.checkMapped(ms, wantDigest)
	})
	if err != nil {
		return err
	}
	defer func() {
		for _, m := range ranks {
			m.Close()
		}
	}()

	public := func(seed uint64) (time.Duration, int64, error) {
		hosts, err := loopbackHosts(bigRanks)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		res, err := runRanks(func(r int) (*betweenness.Result, error) {
			return betweenness.EstimateWorkload(context.Background(), betweenness.Undirected(ranks[r].Graph()),
				append(estimateOptions(bigEps, seed),
					betweenness.WithExecutor(betweenness.TCP(r, hosts)), betweenness.WithThreads(1))...)
		})
		d := time.Since(start)
		if err != nil {
			return d, 0, err
		}
		return d, res[0].Tau, e.gate(ref, res[0].Estimates, res[0].Converged, 2*bigEps)
	}
	traced := func(seed uint64) (time.Duration, int64, error) {
		hosts, err := loopbackHosts(bigRanks)
		if err != nil {
			return 0, 0, err
		}
		d, res, err := bigTraced(e, ranks, hosts, seed)
		if err != nil {
			return d, 0, err
		}
		return d, res.Tau, e.gate(ref, res.Betweenness, res.Converged, 2*bigEps)
	}
	return e.estimateLoop("big-estimate", public, traced)
}

// bigReference returns the reference scores and graph digest of big-tcp.
// They come from the heap path: the text file parsed by graph.LoadFile, not
// the converter or the mapping the measured runs use, so a fault there
// changes the mapped graph's digest or moves its estimates away from the
// reference. The scores are an independent sequential estimate, cached
// under the graph digest and every parameter they depend on, and made
// before the peak-RSS mark is reset.
func bigReference(e *env, input string) ([]float64, string, error) {
	g, err := graph.LoadFile(input)
	if err != nil {
		return nil, "", err
	}
	w := betweenness.Undirected(g)
	seed := e.derive("big-reference", 0)
	key := fmt.Sprintf("%s-seq-eps%g-delta%g-seed%d", w.Digest(), bigEps, delta, seed)
	ref, err := e.reference(key, func() ([]float64, error) {
		res, err := betweenness.EstimateWorkload(context.Background(), w,
			append(estimateOptions(bigEps, seed), betweenness.WithExecutor(betweenness.Sequential()))...)
		if err != nil {
			return nil, fmt.Errorf("reference estimate: %w", err)
		}
		return res.Estimates, nil
	})
	return ref, g.Digest(), err
}

// checkMapped checks every rank's mapping: served zero-copy, and holding the
// graph the heap loader read from the same text file.
func (e *env) checkMapped(ms [bigRanks]*graph.Mapped, wantDigest string) error {
	var errs []error
	for r, m := range ms {
		zero := 0.0
		if m.ZeroCopy() {
			zero = 1
		}
		e.m.add("bigio.zero_copy", zero)
		if !m.ZeroCopy() {
			errs = append(errs, fmt.Errorf("rank %d: mapped graph is not zero-copy", r))
		}
		if got := m.Graph().Digest(); got != wantDigest {
			errs = append(errs, fmt.Errorf("rank %d: mapped graph digest %s, heap-loaded graph %s", r, got, wantDigest))
		}
	}
	return errors.Join(errs...)
}

// runRanks runs one function per rank concurrently and waits for all.
func runRanks[T any](fn func(r int) (T, error)) ([bigRanks]T, error) {
	var out [bigRanks]T
	var errs [bigRanks]error
	var wg sync.WaitGroup
	for r := 0; r < bigRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out[r], errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	return out, errors.Join(errs[:]...)
}

// loopbackHosts reserves n free loopback ports for a TCP world by binding
// and releasing them.
func loopbackHosts(n int) ([]string, error) {
	hosts := make([]string, n)
	for i := range hosts {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hosts[i] = ln.Addr().String()
		defer ln.Close()
	}
	return hosts, nil
}

// bigTraced runs one estimate through the engine entry point the TCP
// executor uses (core.Algorithm2 over mpi.ConnectTCP) with the counting
// sampler on both ranks, and records the core and mpi counters.
func bigTraced(e *env, ranks [bigRanks]*graph.Mapped, hosts []string, seed uint64) (time.Duration, *kadabra.Result, error) {
	kc := &kernelCounter{}
	var crs [bigRanks]*core.Result
	d, err := e.tr.timed(0, "tcp.estimate", func(parent int64) error {
		_, err := runRanks(func(r int) (struct{}, error) {
			_, err := e.tr.timed(parent, fmt.Sprintf("core.algorithm2.rank%d", r), func(id int64) error {
				comm, world, err := mpi.ConnectTCP(r, hosts, 30*time.Second)
				if err != nil {
					return err
				}
				defer world.Close()
				cfg := core.Config{Config: kadabra.Config{Eps: bigEps, Delta: delta, Seed: seed}, Threads: 1}
				if r == 0 {
					cfg.OnEpoch = e.epochSpans(id)
				}
				w := kadabra.UndirectedWorkload(ranks[r].Graph()).WrapSampler(kc.wrap)
				if crs[r], err = core.Algorithm2(context.Background(), w, comm, cfg); err != nil {
					return err
				}
				return comm.Barrier()
			})
			return struct{}{}, err
		})
		return err
	})
	if err != nil {
		return d, nil, err
	}
	res, st := crs[0].Res, crs[0].Stats
	e.recordEngine(res, kc, bigRanks)
	e.m.add("core.epochs", float64(st.Epochs))
	e.m.add("core.barrier_s", st.BarrierWait.Seconds())
	e.m.add("core.reduce_s", st.ReduceTime.Seconds())
	e.m.add("core.transition_s", st.TransitionWait.Seconds())
	e.m.add("core.check_s", st.CheckTime.Seconds())
	wire := crs[0].Stats.WireBytes + crs[1].Stats.WireBytes
	e.m.add("mpi.wire_bytes", float64(wire))
	if st.Epochs > 0 {
		e.m.add("mpi.wire_bytes_per_epoch", float64(wire)/float64(st.Epochs))
	}
	e.m.add("mpi.dense_bytes_per_epoch", float64(st.CommVolumePerEpoch))
	return d, res, nil
}
