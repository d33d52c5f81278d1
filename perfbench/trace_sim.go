package main

import (
	"fmt"
	"sort"
	"time"

	"counterlight/internal/cache"
	"counterlight/internal/core"
	"counterlight/internal/dram"
	"counterlight/internal/obs"
	"counterlight/internal/trace"
)

// replayOps is how many ops per core the traced run replays
// through the simulator's components for each trace; replayBatch is
// how many calls one span covers, so the clock read stays small
// beside calls that take tens of nanoseconds.
const (
	replayOps   = 1 << 17
	replayBatch = 4096
)

// countingWorkload wraps a workload so its streams count Next calls.
// Counting changes nothing the simulator sees.
func countingWorkload(w trace.Workload, n *uint64) trace.Workload {
	inner := w.NewStreams
	w.NewStreams = func(seed int64, cores int) []trace.Stream {
		ss := inner(seed, cores)
		for i, s := range ss {
			ss[i] = &countingStream{s, n}
		}
		return ss
	}
	return w
}

type countingStream struct {
	trace.Stream
	n *uint64
}

func (c *countingStream) Next(now int64) trace.Op {
	*c.n++
	return c.Stream.Next(now)
}

// simReplay is one trace's address stream driven through the
// simulator's components one at a time, with Table I's geometry.
type simReplay struct {
	ops                     []trace.Op
	probes                  int
	nextNs, probeNs, dramNs int64
	misses                  []miss
}

// miss is one LLC miss or dirty eviction, stamped with the time its
// core issued the op on the trace's own clock.
type miss struct {
	t     int64
	addr  uint64
	write bool
}

func batched(l *ledger, name string, n int, fn func(i int)) int64 {
	var total int64
	for lo := 0; lo < n; lo += replayBatch {
		hi := min(lo+replayBatch, n)
		id := l.begin(name, -1)
		for i := lo; i < hi; i++ {
			fn(i)
		}
		l.end(id)
		total += l.spans[id].end - l.spans[id].start
	}
	return total
}

// replaySim replays in's stream through the trace generator, the cache
// hierarchy and a DRAM channel. run is the same trace's real run; its
// DRAM access rate sets the replay's.
func replaySim(in simInput, run core.Result, l *ledger) (*simReplay, error) {
	cfg := in.cfg
	r := &simReplay{}
	streams := in.w.NewStreams(cfg.Seed, cfg.Cores)
	now := make([]int64, cfg.Cores)
	r.ops = make([]trace.Op, replayOps*cfg.Cores)
	issued := make([]int64, len(r.ops))
	r.nextNs = batched(l, "trace.next", len(r.ops), func(i int) {
		c := i % cfg.Cores
		o := streams[c].Next(now[c])
		issued[i] = now[c] + o.Think
		now[c] = issued[i] + 312
		r.ops[i] = o
	})

	l1 := make([]*cache.Cache, cfg.Cores)
	l2 := make([]*cache.Cache, cfg.Cores)
	var err error
	for c := range l1 {
		if l1[c], err = cache.New(cfg.L1Size, cfg.BlockSize, cfg.L1Ways); err != nil {
			return nil, err
		}
		if l2[c], err = cache.New(cfg.L2Size, cfg.BlockSize, cfg.L2Ways); err != nil {
			return nil, err
		}
	}
	l3, err := cache.New(cfg.L3Size, cfg.BlockSize, cfg.L3Ways)
	if err != nil {
		return nil, err
	}
	// The caches see the ops in replay order on one monotonic clock, so
	// the shared L3's recency stays ordered.
	var t int64
	r.probeNs = batched(l, "cache.probe", len(r.ops), func(i int) {
		o := r.ops[i]
		c := i % cfg.Cores
		addr := o.Addr - o.Addr%cfg.BlockSize
		t += o.Think + 312
		r.probes++
		var hit bool
		if o.Write {
			hit, _ = l1[c].Write(addr, t)
		} else {
			hit, _ = l1[c].Lookup(addr, t)
		}
		if hit {
			return
		}
		r.probes++
		if hit, _ = l2[c].Lookup(addr, t); !hit {
			r.probes++
			if hit, _ = l3.Lookup(addr, t); !hit {
				r.misses = append(r.misses, miss{t: issued[i], addr: addr})
				if ev, ok := l3.Insert(addr, t, false); ok && ev.Dirty {
					r.misses = append(r.misses, miss{t: issued[i], addr: ev.Addr, write: true})
				}
			}
			l2[c].Insert(addr, t, false)
		}
		l1[c].Insert(addr, t, o.Write)
	})

	// The misses reach DRAM in the order of their cores' clocks, with
	// those clocks stretched or squeezed so the mean gap matches the
	// real run's DRAM accesses over its measurement window.
	ch, err := dram.New(dram.DefaultConfig(cfg.BandwidthGBs))
	if err != nil {
		return nil, err
	}
	ms := r.misses
	sort.SliceStable(ms, func(a, b int) bool { return ms[a].t < ms[b].t })
	scale := 1.0
	if n := run.DRAM.Reads + run.DRAM.Writes; n > 0 && len(ms) > 1 && ms[len(ms)-1].t > ms[0].t {
		realGap := float64(cfg.WindowTime) / float64(n)
		replayGap := float64(ms[len(ms)-1].t-ms[0].t) / float64(len(ms)-1)
		scale = realGap / replayGap
	}
	r.dramNs = batched(l, "dram.access", len(ms), func(i int) {
		ch.Access(ms[i].addr, int64(float64(ms[i].t-ms[0].t)*scale), ms[i].write)
	})
	return r, nil
}

func traceSim(names []string, seed int64, rec *record) (*result, error) {
	ins, err := simInputs(names, seed)
	if err != nil {
		return nil, err
	}
	rec.SimDigest = simDigest(ins)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	l := newLedger()
	var untraced, traced time.Duration
	var explainedNs float64
	var realOps uint64
	var probes, l1refs float64
	var prints []string
	var sum struct {
		misses, wbs, dramOps, conflicts, rowRefs uint64
		wbCls, wbTotal                           uint64
		bus, memo                                float64
		next, probe, dram                        struct{ ns, n int64 }
	}
	for _, in := range ins {
		res.Attempted += 2
		t0 := time.Now()
		plain, err := core.Run(in.cfg, in.w)
		untraced += time.Since(t0)
		if err != nil {
			return nil, err
		}

		cfg := in.cfg
		cfg.Obs = obs.NewObserver(0)
		var nexts uint64
		t0 = time.Now()
		r, err := core.Run(cfg, countingWorkload(in.w, &nexts))
		traced += time.Since(t0)
		if err != nil {
			return nil, err
		}
		prints = append(prints, fingerprint(plain))
		if fingerprint(r) != prints[len(prints)-1] {
			res.Correct = false
			rec.Notes = append(rec.Notes, fmt.Sprintf("%s: traced core.Result differs from untraced", in.w.Name))
		}

		snap := cfg.Obs.Metrics.Snapshot()
		for _, s := range snap.Series {
			switch lvl := s.Labels["level"]; {
			case s.Name != "cache_hits_total" && s.Name != "cache_misses_total":
			case lvl == "l1":
				l1refs += s.Value
				probes += s.Value
			case lvl == "l2" || lvl == "l3":
				probes += s.Value
			}
		}
		sum.misses += r.LLCMisses
		sum.wbs += r.LLCWritebacks
		sum.dramOps += r.DRAM.Reads + r.DRAM.Writes
		sum.conflicts += r.DRAM.RowConflicts
		sum.rowRefs += r.DRAM.RowHits + r.DRAM.RowMisses + r.DRAM.RowConflicts
		sum.wbCls += r.WBCounterless
		sum.wbTotal += r.WBTotal
		sum.bus += r.BusUtilization / float64(len(ins))
		sum.memo += r.MemoHitRate / float64(len(ins))

		rp, err := replaySim(in, plain, l)
		if err != nil {
			return nil, err
		}
		ops := float64(len(rp.ops))
		perOp := (float64(rp.nextNs) + float64(rp.probeNs) + float64(rp.dramNs)) / ops
		explainedNs += perOp * float64(nexts)
		realOps += nexts
		sum.next.ns += rp.nextNs
		sum.next.n += int64(len(rp.ops))
		sum.probe.ns += rp.probeNs
		sum.probe.n += int64(rp.probes)
		sum.dram.ns += rp.dramNs
		sum.dram.n += int64(len(rp.misses))
	}
	set("trace.next_ns", float64(sum.next.ns)/float64(sum.next.n), "ns")
	set("cache.probe_ns", float64(sum.probe.ns)/float64(sum.probe.n), "ns")
	set("cache.probes_per_access", probes/l1refs, "count")
	set("dram.access_ns", float64(sum.dram.ns)/float64(sum.dram.n), "ns")
	set("sim.unexplained_frac", 1-explainedNs/float64(untraced.Nanoseconds()), "frac")
	set("sim.llc_misses", float64(sum.misses), "count")
	set("sim.llc_writebacks", float64(sum.wbs), "count")
	set("sim.dram_accesses", float64(sum.dramOps), "count")
	set("sim.row_conflict_frac", float64(sum.conflicts)/float64(sum.rowRefs), "frac")
	set("sim.bus_util", sum.bus, "frac")
	set("sim.memo_hit_rate", sum.memo, "frac")
	set("sim.counterless_wb_frac", float64(sum.wbCls)/float64(sum.wbTotal), "frac")
	set("sim.run_s", traced.Seconds()/float64(len(ins)), "s")
	set("sim.trace_overhead_frac", traced.Seconds()/untraced.Seconds()-1, "frac")
	rec.ResultDigest = resultDigest(prints)
	rec.Samples["sim_stream_ops"] = int64(realOps)
	rec.Samples["sim_replayed_ops_per_trace"] = int64(replayOps * ins[0].cfg.Cores)
	return res, nil
}
