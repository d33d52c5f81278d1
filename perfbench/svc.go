package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"counterlight/internal/cipher"
	"counterlight/internal/cluster"
	"counterlight/internal/core"
	"counterlight/internal/crypto/aes"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs/prof"
)

// setupRepeats is how many times a timed run builds and prefills the
// cluster; the median is the service's share of setup_s, and the last
// build serves the timed windows.
const setupRepeats = 9

// poolConfig is the per-node pool the service workloads run: clserve's
// defaults at 2 shards, with journaling and persistence as clserve
// -verify turns them on.
func poolConfig(sh svcShape) mcpool.Config {
	return mcpool.Config{
		Shards:  2,
		Profile: prof.New(aes.DefaultBackend()),
		Journal: sh.journal,
		Persist: sh.journal,
		Engine:  core.DefaultEngineOptions(),
	}
}

// newCluster builds the 1-node x 2-shard topology. A single node keeps
// clserve's pure §IV-B behaviour: admission never refuses.
func newCluster(sh svcShape) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{Nodes: 1, MaxDegradedFrac: -1, Node: poolConfig(sh)})
}

// submitter is anything that applies one request synchronously: a
// cluster, a pool, or the HTTP plane.
type submitter func(mcpool.Request) mcpool.Response

// conn is one connection's view of its blocks: the last acknowledged
// plaintext of each block it owns, which every read is checked against.
type conn struct {
	lo       uint32
	expected []cipher.Block
}

func newConns() [conns]*conn {
	var cs [conns]*conn
	for c := range cs {
		cs[c] = &conn{lo: uint32(c * blocksPerCon), expected: make([]cipher.Block, blocksPerCon)}
	}
	return cs
}

func request(o op) mcpool.Request {
	if o.Write {
		return mcpool.Request{Kind: mcpool.OpWrite, Addr: addrOf(o.Block), Mode: o.mode(), Data: payload(o.Data)}
	}
	return mcpool.Request{Kind: mcpool.OpRead, Addr: addrOf(o.Block)}
}

// check validates one response against the connection's copy and,
// for an acknowledged write, updates the copy.
func (c *conn) check(o op, req *mcpool.Request, resp *mcpool.Response) error {
	if resp.Err != nil {
		return fmt.Errorf("block %d: %w", o.Block, resp.Err)
	}
	slot := &c.expected[o.Block-c.lo]
	if o.Write {
		if resp.Mode != o.mode() {
			return fmt.Errorf("block %d: stored %v, asked for %v", o.Block, resp.Mode, o.mode())
		}
		*slot = req.Data
		return nil
	}
	if resp.Plain != *slot {
		return fmt.Errorf("block %d: read-back mismatch", o.Block)
	}
	return nil
}

// prefill writes every connection's blocks, one goroutine per
// connection.
func prefill(s *svcStreams, cs [conns]*conn, submit submitter) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, o := range s.prefill[c] {
				req := request(o)
				resp := submit(req)
				if err := cs[c].check(o, &req, &resp); err != nil {
					errs[c] = fmt.Errorf("prefill: %w", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// window is the length of one throughput window. The service's timed
// work is a series of windows, and ops_per_s is the median window's
// rate, so a burst of outside load on the host moves a few windows
// rather than the result. Latency percentiles come from all windows
// together: one window's tail holds too few samples to be steady.
const window = time.Second

// connStats is one connection's tally over the timed windows.
type connStats struct {
	pos               int // next op of the connection's stream
	attempted, failed int64
	reads             latHist // read latencies; writes are only counted
	writes            int64
	firstErr          error
}

// drive runs a connection's stream in a closed loop, cycling through
// it from where the last window left off, until the deadline, and
// returns how many ops it completed.
func drive(ops []op, cn *conn, submit submitter, deadline time.Time, st *connStats) (done int64) {
	for {
		o := ops[st.pos%len(ops)]
		st.pos++
		req := request(o)
		t0 := time.Now()
		resp := submit(req)
		t1 := time.Now()
		st.attempted++
		if err := cn.check(o, &req, &resp); err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
		} else {
			done++
			if o.Write {
				st.writes++
			} else {
				st.reads.add(int64(t1.Sub(t0)))
			}
		}
		if !t1.Before(deadline) {
			return done
		}
	}
}

// svcRun is the service's part of a timed run: its set-ups, then one
// window at a time of both connections' closed loops.
type svcRun struct {
	s      *svcStreams
	cs     [conns]*conn
	cl     *cluster.Cluster
	setups []float64
	heapMB float64
	stats  [conns]connStats
	rates  []float64
}

// startSvc builds and prefills the cluster setupRepeats times, timing
// each, and keeps the last build for the windows. The caller closes it.
func startSvc(sh svcShape, seed int64, rec *record) (*svcRun, error) {
	r := &svcRun{s: genStreams(sh, seed), cs: newConns(), setups: make([]float64, setupRepeats)}
	rec.StreamDigest = r.s.digest()
	// Every set-up's prefill rewrites every slot of the connections'
	// copies, so one set serves them all.
	base := liveHeap()
	// Each set-up starts after a GC, so the collection of the cluster
	// the last one built is not charged to the next.
	for i := range r.setups {
		if r.cl != nil {
			r.cl.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r.cl, err = newCluster(sh); err != nil {
			return nil, err
		}
		if err := prefill(r.s, r.cs, r.cl.SubmitWait); err != nil {
			r.cl.Close()
			return nil, err
		}
		r.setups[i] = time.Since(t0).Seconds()
	}
	// The heap is read here, after a fixed amount of work (the
	// prefill), not after the timed windows: the journals grow with
	// every op, so a later reading would rise with throughput.
	r.heapMB = heapAbove(liveHeap(), base)
	return r, nil
}

// window runs both connections for one window.
func (r *svcRun) window() {
	var done [conns]int64
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			done[c] = drive(r.s.ops[c], r.cs[c], r.cl.SubmitWait, deadline, &r.stats[c])
		}(c)
	}
	wg.Wait()
	r.rates = append(r.rates, float64(done[0]+done[1])/time.Since(start).Seconds())
}

// finish closes the cluster and reports the service metrics.
func (r *svcRun) finish(rec *record) (*result, error) {
	r.cl.Close()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var reads latHist
	var writes int64
	for c := range r.stats {
		st := &r.stats[c]
		res.Attempted += st.attempted
		res.Failed += st.failed
		reads.merge(&st.reads)
		writes += st.writes
		if st.firstErr != nil {
			res.Correct = false
			rec.Notes = append(rec.Notes, fmt.Sprintf("connection %d: %d failed ops, first: %v", c, st.failed, st.firstErr))
		}
	}
	rec.Setups = r.setups
	rec.Windows = r.rates
	rec.Samples["read"] = int64(reads.n)
	rec.Samples["write"] = writes
	rec.Samples["windows"] = int64(len(r.rates))
	rec.Samples["setup"] = setupRepeats
	res.Metrics["setup_s"] = metric{median(r.setups), "s"}
	res.Metrics["ops_per_s"] = metric{median(r.rates), "1/s"}
	res.Metrics["heap_mb"] = metric{r.heapMB, "MB"}
	// p95, not p99: on write a read's tail is the write it queued
	// behind on a shared shard, and its p99 ranged 245-923 us over ten
	// runs on a 2-vCPU VM with heavy steal time.
	for _, p := range []struct {
		name string
		q    float64
	}{{"read_p50_us", 0.50}, {"read_p95_us", 0.95}} {
		v, err := reads.tailQuantile(p.name, p.q)
		if err != nil {
			return nil, err
		}
		res.Metrics[p.name] = metric{v, "us"}
	}
	return res, nil
}
