package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"counterlight/internal/core"
	"counterlight/internal/trace"
)

// simTraces is each workload's simulator traces, split by the regime
// of the epoch monitor. On read, mcf is bound by read misses and never
// leaves counter mode, and omnetpp sits at the 60% threshold where
// epochs flip; on write, lbm saturates the bus and writes back
// counterless throughout. The split also evens out the host time one
// pass over the traces takes (about 2.7 s and 3.8 s).
var simTraces = map[string][]string{
	"read":  {"mcf", "omnetpp"},
	"write": {"lbm"},
}

// digestOps is how many ops per core the simulator input digest covers.
const digestOps = 4096

// simInput is one trace ready to simulate.
type simInput struct {
	w   trace.Workload
	cfg core.Config
}

// simInputs resolves the traces and builds and validates Table I's
// Counter-light configuration for each.
func simInputs(names []string, seed int64) ([]simInput, error) {
	ins := make([]simInput, len(names))
	for i, name := range names {
		w, ok := trace.ByName(name)
		if !ok {
			return nil, fmt.Errorf("trace %q not found", name)
		}
		cfg := core.DefaultConfig(core.CounterLight)
		cfg.Seed = seed
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		ins[i] = simInput{w: w, cfg: cfg}
	}
	return ins, nil
}

// simSetup is the simulator's set-up for every trace: the inputs
// resolved, then core.Run with no warm-up and a 1 ps window. That run
// builds everything a full run builds (caches, counter layout, DRAM
// channel, epoch monitor, streams, metrics) and retires at most one op
// per core.
func simSetup(names []string, seed int64) ([]simInput, error) {
	ins, err := simInputs(names, seed)
	if err != nil {
		return nil, err
	}
	for _, in := range ins {
		cfg := in.cfg
		cfg.WarmupTime, cfg.WindowTime = 0, 1
		if _, err := core.Run(cfg, in.w); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", in.w.Name, err)
		}
	}
	return ins, nil
}

// simDigest fingerprints the first digestOps ops of every core's
// stream of every trace.
func simDigest(ins []simInput) string {
	h := sha256.New()
	var buf [33]byte
	for _, in := range ins {
		for _, st := range in.w.NewStreams(in.cfg.Seed, in.cfg.Cores) {
			var now int64
			for k := 0; k < digestOps; k++ {
				o := st.Next(now)
				now += o.Think + 312
				binary.LittleEndian.PutUint64(buf[0:], uint64(o.Think))
				binary.LittleEndian.PutUint64(buf[8:], o.Addr)
				binary.LittleEndian.PutUint64(buf[16:], o.PC)
				binary.LittleEndian.PutUint64(buf[24:], o.Instr)
				buf[32] = 0
				if o.Write {
					buf[32] |= 1
				}
				if o.Dependent {
					buf[32] |= 2
				}
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// resultDigest fingerprints the traces' results together.
func resultDigest(prints []string) string {
	h := sha256.New()
	for _, p := range prints {
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// fingerprint encodes every field of a Result, histogram bins
// included, so two runs can be compared for identity.
func fingerprint(r core.Result) string {
	bins := r.CounterLateHist.Bins()
	r.CounterLateHist = nil
	b, err := json.Marshal(struct {
		R    core.Result
		Bins []uint64
	}{r, bins})
	if err != nil {
		panic(err) // Result holds only plain data
	}
	return string(b)
}

// simSetupRepeats is how many simulator set-ups a run times; their
// median is the simulator's share of setup_s. A set-up is a few
// milliseconds, mostly allocation, so each starts after a GC and many
// are taken.
const simSetupRepeats = 41

// simRun is the simulator's part of a timed run: its set-ups, then one
// trace run at a time, the traces in turn.
type simRun struct {
	ins    []simInput
	setups []float64
	first  []core.Result
	prints []string
	times  [][]float64 // host s of each run, per trace
	heaps  []float64   // live-heap peak of each run above its start, MB
	runs   int
	res    *result
}

// startSim times the simulator's set-ups.
func startSim(names []string, seed int64, rec *record) (*simRun, error) {
	r := &simRun{setups: make([]float64, simSetupRepeats), res: &result{Correct: true, Metrics: map[string]metric{}}}
	for i := range r.setups {
		runtime.GC()
		t0 := time.Now()
		var err error
		if r.ins, err = simSetup(names, seed); err != nil {
			return nil, err
		}
		r.setups[i] = time.Since(t0).Seconds()
	}
	rec.SimDigest = simDigest(r.ins)
	r.first = make([]core.Result, len(r.ins))
	r.prints = make([]string, len(r.ins))
	r.times = make([][]float64, len(r.ins))
	return r, nil
}

// runOne simulates the next trace in turn and checks its result
// against that trace's first.
func (r *simRun) runOne(rec *record) {
	i, in := r.runs%len(r.ins), r.ins[r.runs%len(r.ins)]
	heap := heapPeak()
	t0 := time.Now()
	res, err := core.Run(in.cfg, in.w)
	r.times[i] = append(r.times[i], time.Since(t0).Seconds())
	r.heaps = append(r.heaps, heap())
	r.res.Attempted++
	switch {
	case err != nil:
		r.res.Failed++
		r.res.Correct = false
		rec.Notes = append(rec.Notes, fmt.Sprintf("%s: %v", in.w.Name, err))
	case r.prints[i] == "":
		r.first[i], r.prints[i] = res, fingerprint(res)
	case fingerprint(res) != r.prints[i]:
		r.res.Correct = false
		rec.Notes = append(rec.Notes, fmt.Sprintf("%s: run %d result differs from its first", in.w.Name, len(r.times[i])))
	}
	r.runs++
}

// finish reports the simulator metrics once every trace has run.
func (r *simRun) finish(rec *record) *result {
	res := r.res
	if !res.Correct {
		return res
	}
	// Each trace's result is identical every run, so the rate is its
	// instructions over its median time.
	var instr, busy, ipc, lat float64
	for i, f := range r.first {
		instr += float64(f.Instructions)
		busy += median(r.times[i])
		ipc += f.IPC / float64(len(r.first))
		lat += f.AvgMissLatNS / float64(len(r.first))
	}
	rec.ResultDigest = resultDigest(r.prints)
	rec.SimRuns = map[string][]float64{}
	for i, in := range r.ins {
		rec.SimRuns[in.w.Name] = r.times[i]
	}
	rec.Samples["sim_runs"] = int64(r.runs)
	rec.Samples["sim_setup"] = simSetupRepeats
	res.Metrics["setup_s"] = metric{median(r.setups), "s"}
	res.Metrics["sim_instr_per_s"] = metric{instr / busy, "1/s"}
	res.Metrics["sim_heap_mb"] = metric{slices.Max(r.heaps), "MB"}
	res.Metrics["sim_ipc"] = metric{ipc, "IPC"}
	res.Metrics["sim_miss_lat_ns"] = metric{lat, "ns"}
	return res
}
