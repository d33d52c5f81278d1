// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time and prints one JSON result line:
//
//	perfbench --workload read --seed 1 --seconds 10 --trace 0
//
// A workload is one regime of the paper's read/write trade, run on
// both models of it: the service stack (cluster, pool, engine) and the
// timing simulator. --trace 0 measures the end-to-end metrics with no
// tracing; --trace 1 replays the workload's op streams layer by layer
// under spans and prints the per-layer ledger instead. README.md gives
// the workload rationale and which layer metric should move which
// end-to-end one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"counterlight/internal/crypto/aes"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run's context, printed before the result line.
type record struct {
	Workload     string               `json:"workload"`
	Seed         int64                `json:"seed"`
	Seconds      int                  `json:"seconds"`
	Trace        int                  `json:"trace"`
	NProc        int                  `json:"nproc"`
	GOMAXPROCS   int                  `json:"gomaxprocs"`
	GoVersion    string               `json:"go_version"`
	AESBackend   string               `json:"aes_backend"`
	CPUModel     string               `json:"cpu_model"`
	StreamDigest string               `json:"stream_digest"`           // the service op streams
	SimDigest    string               `json:"sim_digest"`              // the simulator's trace streams
	ResultDigest string               `json:"result_digest,omitempty"` // the simulator's core.Results, equal across --trace 0 and 1
	Samples      map[string]int64     `json:"samples,omitempty"`
	Setups       []float64            `json:"setup_s,omitempty"`           // host s of each service set-up
	Windows      []float64            `json:"windows_ops_per_s,omitempty"` // service ops/s of each 1 s window
	SimRuns      map[string][]float64 `json:"sim_run_s,omitempty"`         // host s of each simulator run, per trace
	Notes        []string             `json:"notes,omitempty"`
}

// simShare is the part of a timed run's host time the simulator gets;
// the service gets the rest.
const simShare = 0.4

func main() {
	workload := flag.String("workload", "", "read | write")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed run length (a traced run replays a fixed-size sample instead)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rec := &record{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), AESBackend: aes.DefaultBackend(),
		CPUModel: cpuModel(), Samples: map[string]int64{},
	}
	var res *result
	var err error
	sh, ok := shapes[*workload]
	traces := simTraces[*workload]
	switch {
	case !ok:
		err = fmt.Errorf("unknown workload %q (want read or write)", *workload)
	case *traced == 0:
		res, err = runTimed(sh, traces, *seed, time.Duration(*seconds)*time.Second, rec)
	default:
		var svc, sim *result
		if svc, err = traceSvc(sh, *seed, rec); err == nil {
			if sim, err = traceSim(traces, *seed, rec); err == nil {
				res, err = merge(svc, sim)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	_ = out.Encode(map[string]*record{"record": rec}) // stdout write errors surface on the result line below
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", strings.Join(rec.Notes, "; "))
		os.Exit(1)
	}
}

// runTimed sets up the service and then the simulator, and
// interleaves their timed work until dur has passed: whichever is
// behind its share of the host time so far (simShare for the
// simulator) runs next, a service window or one simulator run. Both
// then sample the whole run, so a slow spell of the host lands on a
// few samples of each rather than on all of one. The run ends at most
// one simulator run past dur, once every trace has run.
func runTimed(sh svcShape, traces []string, seed int64, dur time.Duration, rec *record) (*result, error) {
	sv, err := startSvc(sh, seed, rec)
	if err != nil {
		return nil, err
	}
	sm, err := startSim(traces, seed, rec)
	if err != nil {
		sv.cl.Close()
		return nil, err
	}
	var svcT, simT time.Duration
	for svcT+simT < dur || len(sv.rates) == 0 || sm.runs < len(sm.ins) {
		t0 := time.Now()
		if float64(simT) < simShare*float64(svcT+simT) {
			sm.runOne(rec)
			simT += time.Since(t0)
		} else {
			sv.window()
			svcT += time.Since(t0)
		}
	}
	svc, err := sv.finish(rec)
	if err != nil {
		return nil, err
	}
	return merge(svc, sm.finish(rec))
}

// merge joins the service's and the simulator's results. Their two
// set-ups add up to setup_s; every other metric belongs to one of them.
func merge(svc, sim *result) (*result, error) {
	res := &result{
		Correct:   svc.Correct && sim.Correct,
		Attempted: svc.Attempted + sim.Attempted,
		Failed:    svc.Failed + sim.Failed,
		Metrics:   svc.Metrics,
	}
	for name, m := range sim.Metrics {
		if name == "setup_s" {
			m.Value += svc.Metrics[name].Value
		} else if _, dup := svc.Metrics[name]; dup {
			return nil, fmt.Errorf("metric %s reported by both the service and the simulator", name)
		}
		res.Metrics[name] = m
	}
	return res, nil
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// liveHeap forces a GC and returns the bytes of objects still
// reachable.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapAbove is the live heap in MB above base, a reading taken when
// the benchmark's own inputs were already allocated, so only what the
// program holds counts.
func heapAbove(live, base uint64) float64 {
	return float64(int64(live)-int64(base)) / (1 << 20)
}

// heapPeak samples the live heap, updated at the end of every GC,
// every 10 ms until stop, which forces one more GC and returns the
// peak in MB above the reading at the start.
func heapPeak() (stop func() float64) {
	base := liveHeap()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		runtime.GC()
		read()
		return heapAbove(peak, base)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
