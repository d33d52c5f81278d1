// Command clcheck drives the differential verification harness: seeded
// random programs (reads, writes, mode flips, injected faults) are run
// on every engine variant and checked op-by-op against the reference
// oracle, with cross-variant differential comparison on top. Diverging
// seeds are minimized to replayable repro tokens.
//
// Usage:
//
//	clcheck -seeds 64 -j 8
//	clcheck -campaign faults.json -tokens repros.txt
//	clcheck -repro Y2xrMQZhZXMxMjgB...
//	clcheck -seeds 4 -schemes
//	CL_CIPHER=ref clcheck -seeds 16   # engines on the textbook AES (default stdlib); the oracle is always ref
//	clcheck -crash -seeds 200         # crash-injection campaign over the NVM engine
//	clcheck -crash-break -seeds 20    # teeth check: broken recovery must be caught
//	clcheck -cluster -seeds 20        # cluster chaos campaign: kill/restart a node mid-traffic
//	clcheck -cluster-break -seeds 8   # teeth check: broken node recovery must be caught
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"counterlight/internal/check"
	"counterlight/internal/figures"
	"counterlight/internal/obs"
	"counterlight/internal/obs/flight"
)

func main() {
	seeds := flag.Int("seeds", 16, "number of generated programs (seed-start, seed-start+1, ...)")
	seedStart := flag.Int64("seed-start", 1, "first program seed")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent program checks")
	ops := flag.Int("ops", 0, "ops per generated program (0 = generator default)")
	blocks := flag.Uint("blocks", 0, "address-space blocks per program (0 = generator default)")
	faultRate := flag.Float64("fault-rate", 0, "per-op fault injection probability (0 = generator default)")
	campaignFile := flag.String("campaign", "", "load a campaign spec from this JSON file (overrides the generator flags)")
	repro := flag.String("repro", "", "replay one repro token instead of running a campaign")
	concurrent := flag.Bool("concurrent", false, "run the concurrent differential campaign: race each program through the sharded mcpool engine, then verify the applied-op journals against serialized replays")
	crash := flag.Bool("crash", false, "run the crash-injection campaign: each program runs on the NVM persistence engine, power fails at a seed-derived step, and the recovered state is diffed against a never-crashed oracle")
	crashBreak := flag.Bool("crash-break", false, "with the crash campaign: arm the intentional recovery bug; the campaign must catch it (teeth check, exit 0 iff divergences were found)")
	clusterMode := flag.Bool("cluster", false, "run the cluster chaos campaign: each program races through a multi-node cluster while a node is killed and restarted mid-traffic, then the full acknowledged history is verified bit-identical")
	clusterBreak := flag.Bool("cluster-break", false, "with the cluster campaign: arm the intentional recovery bug on restarts; the campaign must catch it (teeth check, exit 0 iff divergences were found)")
	nodes := flag.Int("nodes", 2, "with -cluster: controller nodes in the chaos cluster")
	adaptive := flag.Bool("adaptive", false, "with -concurrent: enable the measurement-driven adaptive watermark so its moves race the replay")
	flightPath := flag.String("flight", "", "with -concurrent: write the flight recorder dump to this path when a divergence is found")
	schemes := flag.Bool("schemes", false, "also sweep every registered timing scheme's Result invariants over the seeds")
	metricsFile := flag.String("metrics", "", "write a Prometheus-text snapshot of the campaign counters to this file")
	tokensFile := flag.String("tokens", "", "write minimized repro tokens (one per line) to this file on divergence")
	flag.Parse()

	if *repro != "" {
		os.Exit(replayToken(*repro))
	}
	if *concurrent {
		os.Exit(concurrentCampaign(*seeds, *seedStart, *jobs, *metricsFile, *adaptive, *flightPath))
	}
	if *crash || *crashBreak {
		os.Exit(crashCampaign(*seeds, *seedStart, *jobs, *metricsFile, *crashBreak, *flightPath, *tokensFile))
	}
	if *clusterMode || *clusterBreak {
		os.Exit(clusterCampaign(*seeds, *seedStart, *jobs, *nodes, *metricsFile, *clusterBreak, *flightPath))
	}

	spec := check.DefaultCampaign(*seeds, *seedStart)
	if *campaignFile != "" {
		var err error
		spec, err = check.LoadCampaign(*campaignFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clcheck: %v\n", err)
			os.Exit(2)
		}
	} else {
		if *ops > 0 {
			spec.Ops = *ops
		}
		if *blocks > 0 {
			spec.Blocks = uint32(*blocks)
		}
		if *faultRate > 0 {
			spec.FaultRate = *faultRate
		}
	}

	pool := figures.NewRunner(true)
	pool.Workers = *jobs
	reg := obs.NewRegistry()

	report, err := check.RunCampaign(spec, pool, reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("campaign %q: %d programs, %d ops, %d injected faults, %d engine DUEs\n",
		spec.Name, report.Programs, report.Ops, report.Faults, report.EngineDUEs)
	var tokens []string
	for _, f := range report.Failures {
		fmt.Printf("seed %d: DIVERGED at op %d [%s]: %s\n", f.Seed, f.Div.OpIndex, f.Div.Kind, f.Div.Detail)
		if f.Token != "" {
			state := "UNVERIFIED"
			if f.Verified {
				state = "verified"
			}
			fmt.Printf("  minimized repro (%s): clcheck -repro %s\n", state, f.Token)
			tokens = append(tokens, f.Token)
		}
	}
	if *tokensFile != "" && len(tokens) > 0 {
		if err := os.WriteFile(*tokensFile, []byte(strings.Join(tokens, "\n")+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "clcheck: tokens: %v\n", err)
			os.Exit(1)
		}
	}
	if *metricsFile != "" {
		writeMetrics(*metricsFile, reg)
	}

	exit := 0
	if !report.OK() {
		if spec.ExpectDivergence {
			fmt.Println("FAIL: campaign expected a verified minimized divergence and produced none — the harness has no teeth")
		} else {
			fmt.Printf("FAIL: %d diverging seed(s)\n", len(report.Failures))
		}
		exit = 1
	} else if spec.ExpectDivergence {
		fmt.Println("ok: known-bad campaign diverged, minimized, and verified as expected")
	} else {
		fmt.Println("ok: zero divergences")
	}

	if *schemes {
		if code := schemeSweep(*seeds, *seedStart, pool); code != 0 {
			exit = code
		}
	}
	os.Exit(exit)
}

// concurrentCampaign runs the concurrent differential mode over the
// seed range: every program races through a sharded mcpool with
// multiple submitter goroutines, and each shard's applied-op journal
// is replayed serially with the oracle in lockstep. Exit 1 on any
// divergence.
func concurrentCampaign(seeds int, seedStart int64, jobs int, metricsFile string, adaptive bool, flightPath string) int {
	pool := figures.NewRunner(true)
	pool.Workers = jobs
	reg := obs.NewRegistry()
	ccfg := check.ConcurrentConfig{AdaptiveWatermark: adaptive}
	var rec *flight.Ring
	if flightPath != "" {
		// One shared ring across the campaign: divergences annotate it
		// (KindDivergence carries the op index) and the newest window
		// of pool activity around the failure is what gets dumped.
		rec = flight.NewRing(4096)
		ccfg.Flight = rec
	}
	report, err := check.RunConcurrentCampaign(seeds, seedStart, ccfg, pool, reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: concurrent: %v\n", err)
		return 1
	}
	fmt.Printf("concurrent campaign: %d programs, %d ops through the sharded pool\n",
		report.Programs, report.Ops)
	for _, f := range report.Failures {
		fmt.Printf("seed %d: DIVERGED at op %d [%s]: %s\n", f.Seed, f.Div.OpIndex, f.Div.Kind, f.Div.Detail)
	}
	if metricsFile != "" {
		writeMetrics(metricsFile, reg)
	}
	if !report.OK() {
		if rec != nil {
			if err := rec.DumpFile(flightPath); err != nil {
				fmt.Fprintf(os.Stderr, "clcheck: flight: %v\n", err)
			} else {
				fmt.Printf("wrote flight dump (%d events, %d evicted) to %s\n",
					rec.Recorded(), rec.Evicted(), flightPath)
			}
		}
		fmt.Printf("FAIL: %d diverging seed(s)\n", len(report.Failures))
		return 1
	}
	fmt.Println("ok: zero divergences between concurrent and serialized execution")
	return 0
}

// clusterCampaign runs the cluster chaos campaign: every seed's
// program races through a multi-node cluster (journaled + persisted)
// while the controller kills and restarts one node mid-traffic, then
// the oracle stack — transport accounting, per-block order, seq
// continuity, segment bit-identity, read-back — must come up clean.
// Exit 1 on any divergence, unless breakRecovery turns the run into a
// teeth check (exit 0 iff the armed bug WAS caught).
func clusterCampaign(seeds int, seedStart int64, jobs, nodes int, metricsFile string, breakRecovery bool, flightPath string) int {
	pool := figures.NewRunner(true)
	pool.Workers = jobs
	reg := obs.NewRegistry()
	ccfg := check.ClusterConfig{Nodes: nodes, Chaos: true, BreakRecovery: breakRecovery}
	var rec *flight.Ring
	if flightPath != "" {
		rec = flight.NewRing(4096)
		ccfg.Flight = rec
	}
	report, err := check.RunClusterCampaign(seeds, seedStart, ccfg, pool, reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: cluster: %v\n", err)
		return 1
	}
	fmt.Printf("cluster campaign: %d programs, %d ops over %d nodes — %d acked, %d shed in dark windows, %d kills, %d restarts\n",
		report.Programs, report.Ops, nodes, report.Acked, report.Rejected, report.Kills, report.Restarts)
	for _, f := range report.Failures {
		fmt.Printf("seed %d: DIVERGED at op %d [%s]: %s\n", f.Seed, f.Div.OpIndex, f.Div.Kind, f.Div.Detail)
	}
	if metricsFile != "" {
		writeMetrics(metricsFile, reg)
	}
	if !report.OK() && rec != nil {
		if err := rec.DumpFile(flightPath); err != nil {
			fmt.Fprintf(os.Stderr, "clcheck: flight: %v\n", err)
		} else {
			fmt.Printf("wrote flight dump (%d events, %d evicted) to %s\n",
				rec.Recorded(), rec.Evicted(), flightPath)
		}
	}
	if breakRecovery {
		if report.OK() {
			fmt.Println("FAIL: broken node recovery was armed and the campaign caught nothing — the chaos harness has no teeth")
			return 1
		}
		fmt.Printf("ok: broken node recovery caught on %d run(s)\n", len(report.Failures))
		return 0
	}
	if !report.OK() {
		fmt.Printf("FAIL: %d diverging seed(s)\n", len(report.Failures))
		return 1
	}
	fmt.Println("ok: every kill/restart replayed bit-identically and no acknowledged write was lost")
	return 0
}

// crashCampaign runs the crash-injection verification campaign: every
// seed's program runs through the NVM persistence engine per variant,
// a seed-derived crash point cuts power, recovery rebuilds the engine,
// and the recovered state is diffed against a never-crashed oracle of
// the durable prefix. Exit 1 on any divergence — unless breakRecovery
// is set, in which case the campaign is a teeth check and exits 0 only
// if the deliberately broken recovery WAS caught.
func crashCampaign(seeds int, seedStart int64, jobs int, metricsFile string, breakRecovery bool, flightPath, tokensFile string) int {
	pool := figures.NewRunner(true)
	pool.Workers = jobs
	reg := obs.NewRegistry()
	ccfg := check.CrashCampaignConfig{BreakRecovery: breakRecovery}
	var rec *flight.Ring
	if flightPath != "" {
		rec = flight.NewRing(4096)
		ccfg.Flight = rec
	}
	report, err := check.RunCrashCampaign(seeds, seedStart, ccfg, pool, reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: crash: %v\n", err)
		return 1
	}
	fmt.Printf("crash campaign: %d programs, %d ops, %d crashes fired, %d journal entries replayed\n",
		report.Programs, report.Ops, report.Crashes, report.Replayed)
	var tokens []string
	for _, f := range report.Failures {
		fmt.Printf("seed %d [%s]: DIVERGED after recovery [%s]: %s\n", f.Seed, f.Variant, f.Div.Kind, f.Div.Detail)
		if f.Token != "" {
			fmt.Printf("  minimized repro: clcheck -repro %s\n", f.Token)
			tokens = append(tokens, f.Token)
		}
	}
	if tokensFile != "" && len(tokens) > 0 {
		if err := os.WriteFile(tokensFile, []byte(strings.Join(tokens, "\n")+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "clcheck: tokens: %v\n", err)
			return 1
		}
	}
	if metricsFile != "" {
		writeMetrics(metricsFile, reg)
	}
	if !report.OK() && rec != nil {
		if err := rec.DumpFile(flightPath); err != nil {
			fmt.Fprintf(os.Stderr, "clcheck: flight: %v\n", err)
		} else {
			fmt.Printf("wrote flight dump (%d events, %d evicted) to %s\n",
				rec.Recorded(), rec.Evicted(), flightPath)
		}
	}
	if breakRecovery {
		if report.OK() {
			fmt.Println("FAIL: broken recovery was armed and the campaign caught nothing — the crash harness has no teeth")
			return 1
		}
		fmt.Printf("ok: broken recovery caught on %d run(s) and minimized to replayable tokens\n", len(report.Failures))
		return 0
	}
	if !report.OK() {
		fmt.Printf("FAIL: %d diverging run(s)\n", len(report.Failures))
		return 1
	}
	fmt.Println("ok: every recovery was bit-identical to the never-crashed oracle")
	return 0
}

// replayToken parses and replays one repro token, reporting whether the
// recorded divergence still reproduces. Exit 1 on divergence (the
// failure is live), 0 when the program runs clean (fixed). Crash
// tokens replay through the NVM crash/recover/diff pipeline.
func replayToken(token string) int {
	r, err := check.ParseToken(token)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: bad token: %v\n", err)
		return 2
	}
	if r.Crash {
		fmt.Printf("replaying crash repro: variant %s, eccOff %v, %d ops, %d blocks, crash step %d, break-recovery %v\n",
			r.Variant, r.ECCOff, len(r.Program.Ops), r.Program.Blocks, r.CrashStep, r.BreakRecovery)
		res, err := check.CrashReplay(r, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clcheck: %v\n", err)
			return 2
		}
		if res.Div != nil {
			fmt.Printf("DIVERGED after recovery (crashed=%v, %d/%d ops applied, %d entries replayed) [%s]: %s\n",
				res.Crashed, res.Applied, res.Ops, res.Report.Replayed, res.Div.Kind, res.Div.Detail)
			return 1
		}
		fmt.Printf("clean: crashed=%v at step %d, %d/%d ops applied, recovery replayed %d entries — recovery is exact\n",
			res.Crashed, r.CrashStep, res.Applied, res.Ops, res.Report.Replayed)
		return 0
	}
	fmt.Printf("replaying: variant %s, eccOff %v, seed %d, %d ops, %d blocks\n",
		r.Variant, r.ECCOff, r.Program.Seed, len(r.Program.Ops), r.Program.Blocks)
	rr, err := check.Replay(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: %v\n", err)
		return 2
	}
	if rr.Div != nil {
		fmt.Printf("DIVERGED at op %d [%s]: %s\n", rr.Div.OpIndex, rr.Div.Kind, rr.Div.Detail)
		return 1
	}
	fmt.Printf("clean: %d writes, %d reads, %d corrected, %d DUEs — divergence no longer reproduces\n",
		rr.Stats.Writes, rr.Stats.Reads, rr.Stats.Corrections, rr.Stats.DUEs)
	return 0
}

// schemeSweep runs the timing-scheme invariant checks over the same
// seed range and reports issues; returns 1 if any were found.
func schemeSweep(n int, start int64, pool *figures.Runner) int {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = start + int64(i)
	}
	issues, err := check.SchemeSweep(seeds, pool)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: schemes: %v\n", err)
		return 1
	}
	if len(issues) == 0 {
		fmt.Printf("ok: scheme sweep clean over %d seed(s)\n", n)
		return 0
	}
	for _, iss := range issues {
		fmt.Printf("scheme %s seed %d: %s\n", iss.Scheme, iss.Seed, iss.Detail)
	}
	return 1
}

// writeMetrics writes one Prometheus exposition of the campaign
// counters.
func writeMetrics(path string, reg *obs.Registry) {
	f, err := os.Create(path)
	if err == nil {
		err = reg.Snapshot().WritePrometheus(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: metrics: %v\n", err)
		os.Exit(1)
	}
}
