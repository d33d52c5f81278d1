package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"counterlight/internal/cipher"
	"counterlight/internal/cluster"
	"counterlight/internal/core"
	"counterlight/internal/crypto/gf"
	"counterlight/internal/crypto/keccak"
	"counterlight/internal/ctrblock"
	"counterlight/internal/ecc"
	"counterlight/internal/epoch"
	"counterlight/internal/mcpool"
	"counterlight/internal/nvm"
)

// sampleOps is how many ops of each connection's stream the traced
// run replays through every layer; httpOps more go over the HTTP
// plane after them.
func sampleOps(sh svcShape) int {
	if sh.journal {
		return 3000
	}
	return 20000
}

const httpOps = 400

// interleave merges the connections' samples round-robin, the order
// the single-threaded engine replays apply them in. Connections own
// disjoint blocks, so any interleaving reads back the same values.
func interleave(sample [conns][]op) []op {
	out := make([]op, 0, conns*len(sample[0]))
	for i := range sample[0] {
		for c := range sample {
			out = append(out, sample[c][i])
		}
	}
	return out
}

// coreReplay is the engine layer and the calls inside it, driven
// standalone: a core.Engine applies each op under a span, then the
// same op's child calls are replayed through their own packages'
// public functions, each under a span charged to the engine's.
type coreReplay struct {
	eng    *core.Engine
	mirror *ctrblock.Store // receives the engine's counter updates
	cm     *cipher.CounterMode
	cls    *cipher.Counterless
	keys   []uint64 // GF(2^64) MAC keys, one per MAC input word
	macKey []byte
	mac528 []byte // counter-block MAC input: header + 128 counters
	mac48  []byte // tree-node MAC input: header + 8 entries
	levels int
	l      *ledger

	ctrReads, memoHits int // counter-mode reads, and those the memo table served
}

// macWords is the counter-mode MAC's input: 8 data words and the
// EncryptionMetadata.
const macWords = 9

func newCoreReplay(l *ledger) (*coreReplay, error) {
	opts := core.DefaultEngineOptions()
	eng, err := core.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	mirror, err := ctrblock.New(opts.MemSize, cipher.BlockSize)
	if err != nil {
		return nil, err
	}
	r := &coreReplay{
		eng: eng, mirror: mirror, cm: eng.CounterCipher(), cls: eng.CounterlessCipher(0),
		keys: gf.KeySchedule(0x9e3779b97f4a7c15, macWords), macKey: []byte("perfbench-tree-mac-key"),
		mac528: make([]byte, 16+4*ctrblock.CountersPerBlock), mac48: make([]byte, 16+4*ctrblock.TreeArity),
		levels: mirror.Levels(), l: l,
	}
	for i := range r.mac528 {
		r.mac528[i] = byte(i)
	}
	for i := range r.mac48 {
		r.mac48[i] = byte(i)
	}
	return r, nil
}

// treeMACs replays the SHA-3 MACs one tree walk computes: the counter
// block's and one per tree level above it.
func (r *coreReplay) treeMACs(parent int) {
	r.l.around("keccak.mac528", parent, func() { keccak.MAC64(r.macKey, r.mac528) })
	for i := 1; i < r.levels; i++ {
		r.l.around("keccak.mac48", parent, func() { keccak.MAC64(r.macKey, r.mac48) })
	}
}

// gfMAC replays the GF(2^64) dot product of a counter-mode MAC.
func (r *coreReplay) gfMAC(parent int, plain cipher.Block, meta uint64) uint64 {
	var in [macWords]uint64
	w := plain.Words64()
	copy(in[:], w[:])
	in[len(in)-1] = meta
	var dot uint64
	r.l.around("gf.dot", parent, func() { dot = gf.DotProduct(in[:], r.keys) })
	return dot
}

// apply runs one op through the engine under a span, checks it
// against cn, and replays its child calls.
func (r *coreReplay) apply(o op, cn *conn) error {
	addr := addrOf(o.Block)
	l := r.l
	if o.Write {
		plain := payload(o.Data)
		id := l.begin("core.write", -1)
		err := r.eng.Write(addr, plain, o.mode())
		l.end(id)
		if err != nil {
			return err
		}
		cn.expected[o.Block-cn.lo] = plain
		stored, _ := r.eng.Snapshot(addr)
		if o.mode() == epoch.Counterless {
			var ct cipher.Block
			var mac uint64
			l.around("cipher.cls", id, func() {
				ct = r.cls.Encrypt(addr, plain)
				mac = r.cls.MAC(addr, ct, uint32(ctrblock.CounterlessFlag))
			})
			var cw ecc.CodeWord
			l.around("ecc.encode", id, func() { cw = ecc.Encode(ct, mac, ctrblock.CounterlessFlag) })
			if cw != stored {
				return fmt.Errorf("block %d: counterless replay differs from the stored codeword", o.Block)
			}
			return nil
		}
		next := r.eng.Counters().Counter(addr)
		v := l.begin("ctrblock.verify", id)
		ok := r.mirror.VerifyCounter(addr)
		l.end(v)
		if !ok {
			return fmt.Errorf("block %d: mirror tree verification failed", o.Block)
		}
		r.treeMACs(v)
		inc := l.begin("ctrblock.increment", id)
		err = r.mirror.Increment(addr, next)
		l.end(inc)
		if err != nil {
			return err
		}
		r.treeMACs(inc)
		if r.mirror.CounterBlockMAC(addr) != r.eng.Counters().CounterBlockMAC(addr) {
			return fmt.Errorf("block %d: mirror counter-block MAC differs from the engine's", o.Block)
		}
		var ct cipher.Block
		l.around("cipher.pad", id, func() {
			ct = r.cm.Encrypt(uint64(next), addr, plain)
			r.cm.OTP(uint64(next), addr, cipher.WordsPerBlock)
		})
		if ct != stored.Block() {
			return fmt.Errorf("block %d: counter-mode replay ciphertext differs", o.Block)
		}
		mac := r.gfMAC(id, plain, uint64(next))
		l.around("ecc.encode", id, func() { ecc.Encode(ct, mac, uint64(next)) })
		return nil
	}

	id := l.begin("core.read", -1)
	got, info, err := r.eng.Read(addr)
	l.end(id)
	if err != nil {
		return err
	}
	if got != cn.expected[o.Block-cn.lo] {
		return fmt.Errorf("block %d: engine read-back mismatch", o.Block)
	}
	stored, _ := r.eng.Snapshot(addr)
	var meta uint64
	var ct cipher.Block
	l.around("ecc.decode", id, func() {
		meta = stored.DecodeMeta()
		ct = stored.Block()
	})
	var plain cipher.Block
	if meta == ctrblock.CounterlessFlag {
		l.around("cipher.cls", id, func() {
			r.cls.MAC(addr, ct, uint32(meta))
			plain = r.cls.Decrypt(addr, ct)
		})
	} else {
		r.ctrReads++
		if info.MemoHit {
			r.memoHits++
		}
		l.around("cipher.pad", id, func() {
			pad, _ := r.cm.PadWithMAC(meta, addr)
			plain = ct.XOR(pad)
		})
		r.gfMAC(id, plain, meta)
	}
	if plain != got {
		return fmt.Errorf("block %d: replayed decrypt differs from the engine's", o.Block)
	}
	return nil
}

// replayCore builds the engine layer and replays the prefill under pre,
// then ops under l. The prefill's counter-mode writes are replayed too,
// so the write path is measured on a stream with no writes of its own.
func replayCore(s *svcStreams, ops []op, pre, l *ledger) (*coreReplay, error) {
	r, err := newCoreReplay(pre)
	if err != nil {
		return nil, err
	}
	cs := newConns()
	for c := range s.prefill {
		for _, o := range s.prefill[c] {
			if err := r.apply(o, cs[c]); err != nil {
				return nil, fmt.Errorf("core prefill: %w", err)
			}
		}
	}
	r.l = l
	for _, o := range ops {
		if err := r.apply(o, cs[o.Block/blocksPerCon]); err != nil {
			return nil, fmt.Errorf("core replay: %w", err)
		}
	}
	return r, nil
}

// engineRow sums the engine's read and write rows.
func engineRow(rs map[string]row) row {
	var sum row
	for _, name := range []string{"core.read", "core.write"} {
		r := rs[name]
		sum.calls += r.calls
		sum.totalNs += r.totalNs
		sum.selfNs += r.selfNs
	}
	return sum
}

// driveSample runs each connection's sample once through submit, under
// spans named name when ls is non-nil, and returns the wall time.
func driveSample(sample [conns][]op, cs [conns]*conn, submit submitter, name string, ls [conns]*ledger) (time.Duration, error) {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := ls[c]
			for _, o := range sample[c] {
				req := request(o)
				var resp mcpool.Response
				if l != nil {
					id := l.begin(name, -1)
					resp = submit(req)
					l.end(id)
				} else {
					resp = submit(req)
				}
				if err := cs[c].check(o, &req, &resp); err != nil {
					errs[c] = fmt.Errorf("%s: %w", name, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func twoLedgers() [conns]*ledger { return [conns]*ledger{newLedger(), newLedger()} }

// httpSubmitter sends one op to /v1/submit and decodes the answer
// back into a Response.
func httpSubmitter(client *http.Client, url string) submitter {
	return func(req mcpool.Request) mcpool.Response {
		body := map[string]any{"op": "read", "addr": req.Addr}
		if req.Kind == mcpool.OpWrite {
			body = map[string]any{"op": "write", "addr": req.Addr, "data": hex.EncodeToString(req.Data[:]), "mode": req.Mode.String()}
		}
		b, err := json.Marshal(body)
		if err != nil {
			return mcpool.Response{Err: err}
		}
		resp, err := client.Post(url+"/v1/submit", "application/json", bytes.NewReader(b))
		if err != nil {
			return mcpool.Response{Err: err}
		}
		defer resp.Body.Close()
		var out struct {
			Mode  string `json:"mode"`
			Plain string `json:"plain"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return mcpool.Response{Err: fmt.Errorf("HTTP %d: %w", resp.StatusCode, err)}
		}
		if resp.StatusCode != http.StatusOK {
			return mcpool.Response{Err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, out.Error)}
		}
		var r mcpool.Response
		if req.Kind == mcpool.OpWrite {
			r.Mode = epoch.CounterMode
			if out.Mode == epoch.Counterless.String() {
				r.Mode = epoch.Counterless
			}
			return r
		}
		plain, err := hex.DecodeString(out.Plain)
		if err != nil || len(plain) != cipher.BlockSize {
			return mcpool.Response{Err: fmt.Errorf("bad plain %q", out.Plain)}
		}
		copy(r.Plain[:], plain)
		return r
	}
}

// replayNVM drives the prefill's writes, then the sample's, through a
// crash-consistent engine under spans, flushing every nvmFlushEvery
// writes so the pending queue never forces an implicit flush inside a
// timed write.
const nvmFlushEvery = 16

func replayNVM(s *svcStreams, ops []op, l *ledger) error {
	ne, err := nvm.New(nvm.Config{})
	if err != nil {
		return err
	}
	var writes []op
	for c := range s.prefill {
		writes = append(writes, s.prefill[c]...)
	}
	for _, o := range ops {
		if o.Write {
			writes = append(writes, o)
		}
	}
	// last is every block's last write, which it must read back.
	last := map[uint32]uint64{}
	for i, o := range writes {
		last[o.Block] = o.Data
		id := l.begin("nvm.write", -1)
		err := ne.Write(int64(i+1), 0, addrOf(o.Block), payload(o.Data), o.mode())
		l.end(id)
		if err != nil {
			return err
		}
		if (i+1)%nvmFlushEvery == 0 {
			id := l.begin("nvm.flush", -1)
			err := ne.Flush()
			l.end(id)
			if err != nil {
				return err
			}
		}
	}
	if ne.ImplicitFlushes() != 0 {
		return fmt.Errorf("nvm: %d implicit flushes inside timed writes", ne.ImplicitFlushes())
	}
	for b, d := range last {
		got, _, err := ne.Read(addrOf(b))
		if err != nil {
			return err
		}
		if got != payload(d) {
			return fmt.Errorf("nvm: block %d read-back mismatch", b)
		}
	}
	return nil
}

func traceSvc(sh svcShape, seed int64, rec *record) (*result, error) {
	s := genStreams(sh, seed)
	rec.StreamDigest = s.digest()
	n := sampleOps(sh)
	var sample [conns][]op
	for c := range sample {
		sample[c] = s.ops[c][:n]
	}
	ops := interleave(sample)
	// Every replayed op is checked: engine, pool, and two cluster
	// passes each apply the whole sample.
	res := &result{Correct: true, Attempted: int64(4 * len(ops)), Metrics: map[string]metric{}}
	m := res.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Engine layer and the calls inside it, over the prefill and the
	// sample. cipher.cls is timed so the engine's remainder excludes
	// it, but not reported: only the write stream's 2% counterless
	// writes reach it, so it has no value on read.
	lpre, lc := newLedger(), newLedger()
	cr, err := replayCore(s, ops, lpre, lc)
	if err != nil {
		return nil, err
	}
	rc := rows(lpre, lc)
	for _, name := range []string{"core.read", "core.write", "gf.dot", "cipher.pad", "ecc.decode", "ecc.encode",
		"keccak.mac528", "keccak.mac48", "ctrblock.verify", "ctrblock.increment"} {
		set(name+"_us", rc[name].meanUs(), "us")
	}
	set("core.unexplained_us", engineRow(rc).selfUs(), "us")
	set("core.memo_hit_rate", float64(cr.memoHits)/float64(cr.ctrReads), "frac")
	// The pool's own cost is measured on the sample alone.
	coreRow := engineRow(rows(lc))

	// Pool layer: the same sample from two connections, with the
	// pool's own stage attribution on.
	pcfg := poolConfig(sh)
	pcfg.Attribution = true
	pool, err := mcpool.New(pcfg)
	if err != nil {
		return nil, err
	}
	cs := newConns()
	if err := prefill(s, cs, pool.SubmitWait); err != nil {
		pool.Close()
		return nil, err
	}
	lp := twoLedgers()
	if _, err := driveSample(sample, cs, pool.SubmitWait, "mcpool.submit", lp); err != nil {
		pool.Close()
		return nil, err
	}
	pool.Flush()
	agg := pool.Aggregate()
	stages := pool.AttributionSummary()
	pool.Close()
	rp := rows(lp[0], lp[1])["mcpool.submit"]
	set("mcpool.submit_us", rp.meanUs(), "us")
	set("mcpool.self_us", rp.meanUs()-coreRow.meanUs(), "us")
	for _, st := range stages {
		if st.Stage != "total" {
			set("mcpool."+st.Stage+"_us", float64(st.MeanNs)/1e3, "us")
		}
	}
	set("mcpool.ops_per_batch", float64(agg.Completed)/float64(agg.Batches), "count")
	set("mcpool.degraded_frac", float64(agg.DegradedWrites)/float64(agg.Writes), "frac")

	// Cluster layer: the sample once untraced, then again traced on the
	// same cluster, for the tracing overhead.
	cl, err := newCluster(sh)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cs = newConns()
	if err := prefill(s, cs, cl.SubmitWait); err != nil {
		return nil, err
	}
	lk := twoLedgers()
	var walls [2]time.Duration
	for pass, ls := range [][conns]*ledger{{}, lk} {
		if walls[pass], err = driveSample(sample, cs, cl.SubmitWait, "cluster.submit", ls); err != nil {
			return nil, err
		}
	}
	rk := rows(lk[0], lk[1])["cluster.submit"]
	set("cluster.submit_us", rk.meanUs(), "us")
	set("cluster.self_us", rk.meanUs()-rp.meanUs(), "us")
	set("trace.overhead_frac", walls[1].Seconds()/walls[0].Seconds()-1, "frac")

	// HTTP plane: connection 0's next ops over loopback.
	srv := httptest.NewServer(cluster.NewAPI(cl).Handler())
	lh := newLedger()
	var hs [conns][]op
	hs[0] = s.ops[0][n : n+httpOps]
	_, err = driveSample(hs, cs, httpSubmitter(srv.Client(), srv.URL), "http.submit", [conns]*ledger{lh, nil})
	srv.Close()
	if err != nil {
		return nil, err
	}
	rh := rows(lh)["http.submit"]
	set("http.submit_us", rh.meanUs(), "us")
	set("http.self_us", rh.meanUs()-rk.meanUs(), "us")
	res.Attempted += int64(httpOps)

	// Durability: the journal the cluster kept, and its verification.
	// A workload that runs without journaling replays its prefill and
	// sample through a journaled cluster of its own for these.
	jcl, jops := cl, 2*len(ops)+httpOps
	if !sh.journal {
		jsh := sh
		jsh.journal = true
		if jcl, err = newCluster(jsh); err != nil {
			return nil, err
		}
		defer jcl.Close()
		cs = newConns()
		if err := prefill(s, cs, jcl.SubmitWait); err != nil {
			return nil, err
		}
		if _, err := driveSample(sample, cs, jcl.SubmitWait, "", [conns]*ledger{}); err != nil {
			return nil, err
		}
		jops = len(ops)
		res.Attempted += int64(jops)
	}
	jcl.Drain()
	var jbytes int
	for _, seg := range jcl.History(0) {
		for _, plog := range seg.Plogs {
			jbytes += len(plog)
		}
	}
	set("mcpool.journal_bytes_per_op", float64(jbytes)/float64(jops+workingSet), "B")
	t0 := time.Now()
	mm, err := jcl.Verify()
	if err != nil {
		return nil, err
	}
	set("cluster.verify_s", time.Since(t0).Seconds(), "s")
	if len(mm) != 0 {
		res.Correct = false
		rec.Notes = append(rec.Notes, fmt.Sprintf("cluster.Verify: %d mismatches, first: %+v", len(mm), mm[0]))
	}
	ln := newLedger()
	if err := replayNVM(s, ops, ln); err != nil {
		return nil, err
	}
	rn := rows(ln)
	set("nvm.write_us", rn["nvm.write"].meanUs(), "us")
	set("nvm.flush_us", rn["nvm.flush"].meanUs(), "us")
	rec.Samples["replayed_ops"] = int64(len(ops))
	rec.Samples["http_ops"] = httpOps
	return res, nil
}
