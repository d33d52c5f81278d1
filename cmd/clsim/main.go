// Command clsim runs one workload under one memory-encryption scheme
// on the Table I system and prints the measurement window's results.
//
// Usage:
//
//	clsim -workload omnetpp -scheme counterlight
//	clsim -workload mcf -scheme counterless -bw 6.4 -aes256
//	clsim -workload mcf -seeds 8 -j 4
//	clsim -workload pchase128M -serve :8080 -series run.csv
//	clsim -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"counterlight/internal/core"
	"counterlight/internal/obs"
	"counterlight/internal/obs/serve"
	"counterlight/internal/obs/timeseries"
	"counterlight/internal/trace"
)

func main() {
	workload := flag.String("workload", "mcf", "workload name (see -list)")
	scheme := flag.String("scheme", "counterlight", strings.Join(core.SchemeNames(), " | "))
	bw := flag.Float64("bw", 25.6, "DRAM bandwidth in GB/s")
	aes256 := flag.Bool("aes256", false, "use AES-256 latency (14 ns) instead of AES-128 (10 ns)")
	threshold := flag.Float64("threshold", 0.60, "epoch bandwidth utilization threshold")
	noSwitch := flag.Bool("noswitch", false, "disable dynamic mode switching (ablation)")
	noPrefetch := flag.Bool("noprefetch", false, "disable prefetchers")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	seeds := flag.Int("seeds", 1, "run this many seeds (seed, seed+1, ...) and report the normalized-performance distribution")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations for -seeds")
	list := flag.Bool("list", false, "list workloads and exit")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	baseline := flag.Bool("baseline", false, "also run the no-encryption baseline and report normalized performance")
	metricsFile := flag.String("metrics", "", "write a Prometheus-text metrics snapshot to this file")
	metricsJSON := flag.String("metrics-json", "", "write a JSON metrics snapshot to this file (clreport -compare input)")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON file (load in Perfetto / chrome://tracing)")
	traceCap := flag.Int("trace-depth", obs.DefaultTraceCap, "trace ring-buffer capacity in events (oldest evicted on overflow)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	progress := flag.Bool("progress", false, "print a periodic progress line (sim-time, IPC, epoch mode) on stderr")
	serveAddr := flag.String("serve", "", "serve live telemetry over HTTP on this address (e.g. :8080, 127.0.0.1:0); the process keeps serving after the run until interrupted")
	seriesFile := flag.String("series", "", "write the per-epoch time series to this file (.csv, else JSON)")
	flag.Parse()

	if *list {
		fmt.Println("irregular (paper's primary set):")
		for _, w := range trace.IrregularSet() {
			fmt.Printf("  %s\n", w.Name)
		}
		fmt.Println("regular (Fig. 23 set):")
		for _, w := range trace.RegularSet() {
			fmt.Printf("  %s\n", w.Name)
		}
		fmt.Printf("micro (Sec. III):\n  %s\n", trace.MicroPointerChase().Name)
		return
	}

	sc, ok := core.SchemeByName(*scheme)
	if !ok {
		fmt.Fprintf(os.Stderr, "clsim: unknown scheme %q (want %s)\n",
			*scheme, strings.Join(core.SchemeNames(), " | "))
		os.Exit(2)
	}
	w, ok := trace.ByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "clsim: unknown workload %q (try -list)\n", *workload)
		os.Exit(2)
	}

	cfg := core.DefaultConfig(sc)
	cfg.BandwidthGBs = *bw
	cfg.Threshold = *threshold
	cfg.DynamicSwitch = !*noSwitch
	cfg.PrefetchEnabled = !*noPrefetch
	cfg.Seed = *seed
	if *aes256 {
		cfg = cfg.WithAES256()
	}

	if *seeds > 1 {
		if *serveAddr != "" || *seriesFile != "" {
			fmt.Fprintln(os.Stderr, "clsim: -serve/-series apply to single runs; ignored with -seeds")
		}
		st, err := core.RunSeedsParallel(cfg, w, *seeds, *jobs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("workload: %s  scheme: %s  (%d seeds, -j %d)\n", w.Name, sc, *seeds, *jobs)
		for i, s := range st.Seeds {
			fmt.Printf("seed %3d: %.4f\n", s, st.PerSeed[i])
		}
		fmt.Printf("normalized to noenc: mean %.4f  stddev %.4f  min %.4f  max %.4f\n",
			st.Mean, st.StdDev, st.Min, st.Max)
		return
	}

	// Observability: one observer serves the whole invocation. The
	// metrics registry is shared across runs (series carry a scheme
	// label); the trace ring records only the primary run so the
	// timeline stays a single, coherent stream.
	var observer *obs.Observer
	if *metricsFile != "" || *metricsJSON != "" || *traceFile != "" {
		cap := 0
		if *traceFile != "" {
			if *traceCap <= 0 {
				fmt.Fprintf(os.Stderr, "clsim: -trace-depth must be positive (got %d)\n", *traceCap)
				os.Exit(2)
			}
			cap = *traceCap
		}
		observer = obs.NewObserver(cap)
		cfg.Obs = observer
	}
	// Live telemetry: the progress line, the series export, and the
	// monitoring server all consume the same per-epoch sample stream
	// (cfg.Epochs); none of them perturbs the result.
	var rec *timeseries.Recorder
	var pubs []obs.Publisher
	if *seriesFile != "" {
		rec = timeseries.NewRecorder(0)
		pubs = append(pubs, rec)
	}
	if *progress {
		pubs = append(pubs, obs.PublisherFunc(epochProgress()))
	}
	cfg.Epochs = obs.Tee(pubs...)

	var srv *serve.Server
	var srvAddr string
	var runDone func(error)
	if *serveAddr != "" {
		srv = serve.New()
		var err error
		srvAddr, err = srv.ListenAndServe(*serveAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clsim: -serve: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "clsim: serving live telemetry on http://%s\n", srvAddr)
		_, runDone = srv.Pool().Attach(w.Name, &cfg)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "clsim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	res, err := core.Run(cfg, w)
	if runDone != nil {
		runDone(err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "clsim: %v\n", err)
		os.Exit(1)
	}
	if *progress {
		fmt.Fprintln(os.Stderr) // finish the \r progress line
	}
	switch {
	case *asJSON:
		out := jsonResult{
			Workload:       res.Workload,
			Scheme:         res.Scheme.String(),
			WindowPS:       res.WindowPS,
			Instructions:   res.Instructions,
			IPC:            res.IPC,
			LLCMisses:      res.LLCMisses,
			LLCWritebacks:  res.LLCWritebacks,
			AvgMissLatNS:   res.AvgMissLatNS,
			DRAMReads:      res.DRAM.Reads,
			DRAMWrites:     res.DRAM.Writes,
			RowHits:        res.DRAM.RowHits,
			RowMisses:      res.DRAM.RowMisses,
			RowConflicts:   res.DRAM.RowConflicts,
			BusUtilization: res.BusUtilization,
			EnergyPerInst:  res.EnergyPerInst,
			MemoHitRate:    res.MemoHitRate,
			CounterLate:    res.CounterLateFrac,
			WBCounterless:  res.CounterlessWBFraction(),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "clsim: %v\n", err)
			os.Exit(1)
		}
	default:
		printResult(res)

		if *baseline {
			bcfg := cfg
			bcfg.Scheme = core.NoEnc
			// The primary run's recorder and progress line must not see
			// baseline epochs; the server tracks it as its own run.
			bcfg.Epochs = nil
			if observer != nil {
				// Share the registry (series are scheme-labeled) but not
				// the trace: a second timeline would corrupt the file.
				bcfg.Obs = &obs.Observer{Metrics: observer.Metrics}
			}
			var bdone func(error)
			if srv != nil {
				_, bdone = srv.Pool().Attach(w.Name, &bcfg)
			}
			base, err := core.Run(bcfg, w)
			if bdone != nil {
				bdone(err)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "clsim: baseline: %v\n", err)
				os.Exit(1)
			}
			if *progress {
				fmt.Fprintln(os.Stderr)
			}
			fmt.Printf("\nnormalized performance vs no encryption: %.3f\n", res.PerfNormalizedTo(base))
			fmt.Printf("LLC miss latency overhead: %+.1f ns\n", res.AvgMissLatNS-base.AvgMissLatNS)
		}
	}

	if observer != nil {
		snap := observer.Metrics.Snapshot()
		if *metricsFile != "" {
			writeSnapshot(*metricsFile, snap, obs.Snapshot.WritePrometheus)
		}
		if *metricsJSON != "" {
			writeSnapshot(*metricsJSON, snap, obs.Snapshot.WriteJSON)
		}
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err == nil {
				err = observer.Trace.WriteChromeTrace(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "clsim: trace: %v\n", err)
				os.Exit(1)
			}
			if n := observer.Trace.Dropped(); n > 0 {
				fmt.Fprintf(os.Stderr, "clsim: trace ring overflowed; dropped %d oldest events (raise -trace-depth)\n", n)
			}
		}
	}
	if rec != nil {
		writeSeries(*seriesFile, rec)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "clsim: memprofile: %v\n", err)
			os.Exit(1)
		}
	}

	if srv != nil {
		fmt.Fprintf(os.Stderr, "clsim: run complete; still serving on http://%s (interrupt to exit)\n", srvAddr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // exiting anyway
	}
}

// writeSeries exports the recorded per-epoch samples, picking CSV or
// JSON from the file extension.
func writeSeries(path string, rec *timeseries.Recorder) {
	f, err := os.Create(path)
	if err == nil {
		err = timeseries.WriteTo(f, rec.Samples(), timeseries.FormatForPath(path))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "clsim: series: %v\n", err)
		os.Exit(1)
	}
	if n := rec.Evicted(); n > 0 {
		fmt.Fprintf(os.Stderr, "clsim: series ring overflowed; oldest %d epochs evicted\n", n)
	}
}

// writeSnapshot writes one exposition of the metrics snapshot to path.
func writeSnapshot(path string, snap obs.Snapshot, write func(obs.Snapshot, io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(snap, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "clsim: metrics: %v\n", err)
		os.Exit(1)
	}
}

// epochProgress returns the -progress renderer: a stderr status line
// (overwriting itself with \r) fed by the same per-epoch sample
// stream the series recorder and the monitoring server consume,
// repainted roughly once per simulated millisecond and immediately on
// a mid-epoch mode switch.
func epochProgress() func(obs.EpochSample) {
	const ms = int64(1_000_000_000) // picoseconds
	var lastTS int64
	return func(s obs.EpochSample) {
		if s.TS-lastTS < ms && !s.SwitchedMid {
			return
		}
		lastTS = s.TS
		phase := "warmup"
		if s.Measuring {
			phase = "measure"
		}
		mode := s.Mode
		if s.SwitchedMid {
			mode = "counterless"
		}
		fmt.Fprintf(os.Stderr, "\r[%s] sim %8.2f ms  instr %12d  IPC %6.3f  mode %-11s  switches %3d",
			phase, float64(s.TS)/1e9, s.Instructions, s.IPC, mode, s.ModeSwitches)
	}
}

// jsonResult is the stable machine-readable result shape.
type jsonResult struct {
	Workload       string  `json:"workload"`
	Scheme         string  `json:"scheme"`
	WindowPS       int64   `json:"window_ps"`
	Instructions   uint64  `json:"instructions"`
	IPC            float64 `json:"ipc_per_core"`
	LLCMisses      uint64  `json:"llc_misses"`
	LLCWritebacks  uint64  `json:"llc_writebacks"`
	AvgMissLatNS   float64 `json:"avg_miss_latency_ns"`
	DRAMReads      uint64  `json:"dram_reads"`
	DRAMWrites     uint64  `json:"dram_writes"`
	RowHits        uint64  `json:"row_hits"`
	RowMisses      uint64  `json:"row_misses"`
	RowConflicts   uint64  `json:"row_conflicts"`
	BusUtilization float64 `json:"bus_utilization"`
	EnergyPerInst  float64 `json:"energy_per_instruction_pj"`
	MemoHitRate    float64 `json:"memo_hit_rate"`
	CounterLate    float64 `json:"counter_late_fraction"`
	WBCounterless  float64 `json:"counterless_wb_fraction"`
}

func printResult(r core.Result) {
	fmt.Printf("workload:              %s\n", r.Workload)
	fmt.Printf("scheme:                %s\n", r.Scheme)
	fmt.Printf("window:                %.1f ms\n", float64(r.WindowPS)/1e9)
	fmt.Printf("instructions:          %d (IPC %.3f/core)\n", r.Instructions, r.IPC)
	fmt.Printf("LLC misses:            %d (avg latency %.1f ns)\n", r.LLCMisses, r.AvgMissLatNS)
	fmt.Printf("LLC writebacks:        %d\n", r.LLCWritebacks)
	fmt.Printf("DRAM reads/writes:     %d / %d\n", r.DRAM.Reads, r.DRAM.Writes)
	fmt.Printf("row hit/miss/conflict: %d / %d / %d\n", r.DRAM.RowHits, r.DRAM.RowMisses, r.DRAM.RowConflicts)
	fmt.Printf("bus utilization:       %.1f%%\n", 100*r.BusUtilization)
	fmt.Printf("energy/instruction:    %.1f pJ\n", r.EnergyPerInst)
	if r.MemoHitRate > 0 {
		fmt.Printf("memo hit rate:         %.1f%%\n", 100*r.MemoHitRate)
	}
	if r.CounterLateHist.Total() > 0 {
		fmt.Printf("counter late:          %.1f%% of misses\n", 100*r.CounterLateFrac)
	}
	if r.WBTotal > 0 {
		fmt.Printf("counterless WBs:       %.1f%%\n", 100*r.CounterlessWBFraction())
	}
}
