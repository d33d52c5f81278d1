package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

func TestStreamDigestFollowsSeed(t *testing.T) {
	for name, sh := range shapes {
		a, b, c := genStreams(sh, 7).digest(), genStreams(sh, 7).digest(), genStreams(sh, 8).digest()
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
	}
	digest := func(seed int64) string {
		ins, err := simInputs(simTraces["write"], seed)
		if err != nil {
			t.Fatal(err)
		}
		return simDigest(ins)
	}
	a, b, c := digest(7), digest(7), digest(8)
	if a != b || a == c {
		t.Errorf("simulator digests: seed 7 %s and %s, seed 8 %s", a, b, c)
	}
}

func TestStreamsHaveExplicitModesAndOwnedBlocks(t *testing.T) {
	s := genStreams(shapes["write"], 3)
	for c := 0; c < conns; c++ {
		lo, hi := uint32(c*blocksPerCon), uint32((c+1)*blocksPerCon)
		var writes, cls int
		for _, o := range s.ops[c] {
			if o.Block < lo || o.Block >= hi {
				t.Fatalf("connection %d op on block %d outside [%d,%d)", c, o.Block, lo, hi)
			}
			if o.Write {
				writes++
				if o.mode().String() == "counterless" {
					cls++
				}
			}
		}
		if f := float64(writes) / float64(len(s.ops[c])); math.Abs(f-0.5) > 0.01 {
			t.Errorf("connection %d: write share %.3f, want 0.5", c, f)
		}
		if f := float64(cls) / float64(writes); math.Abs(f-0.02) > 0.005 {
			t.Errorf("connection %d: counterless share of writes %.4f, want 0.02", c, f)
		}
	}
}

func TestLatHistWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h latHist
	xs := make([]float64, 200000)
	for i := range xs {
		v := int64(math.Exp(rng.Float64()*14)) + 1 // 1 ns .. 1.2 ms
		xs[i] = float64(v)
		h.add(v)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := xs[int(math.Ceil(q*float64(len(xs))))-1] / 1e3
		got, beyond := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%g: got %.4f us, exact %.4f us", q, got, want)
		}
		if want := uint64(len(xs)) - uint64(sort.SearchFloat64s(xs, got*1e3*1.005)); beyond > want+uint64(len(xs))/100 {
			t.Errorf("q%g: %d beyond, at most about %d expected", q, beyond, want)
		}
	}
	var small latHist
	for i := 0; i < 100; i++ {
		small.add(int64(i + 1))
	}
	if _, err := small.tailQuantile("p99", 0.99); err == nil {
		t.Error("p99 of 100 samples reported although only one lies beyond it")
	}
}

// TestLedgerChargesDelayToItsLayer spins a fixed delay inside the
// replayed GF MAC span and checks where the ledger puts it: all of it
// on gf.dot, none on the other layers, and none absorbed into the
// engine read's unexplained remainder (which shrinks by the delay,
// since the child now accounts for more of the parent).
func TestLedgerChargesDelayToItsLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a prefilled engine twice")
	}
	const delay = 50 * time.Microsecond
	s := genStreams(shapes["read"], 1)
	var sample [conns][]op
	for c := range sample {
		sample[c] = s.ops[c][:1000]
	}
	ops := interleave(sample)
	measure := func(d time.Duration) map[string]row {
		l := newLedger()
		if d > 0 {
			l.delay = map[string]time.Duration{"gf.dot": d}
		}
		if _, err := replayCore(s, ops, newLedger(), l); err != nil {
			t.Fatal(err)
		}
		return rows(l)
	}
	base, slow := measure(0), measure(delay)
	d := float64(delay) / 1e3
	tol := d / 4
	if got := slow["gf.dot"].meanUs() - base["gf.dot"].meanUs(); math.Abs(got-d) > tol {
		t.Errorf("gf.dot rose by %.2f us, want %.0f", got, d)
	}
	for _, name := range []string{"core.read", "cipher.pad", "ecc.decode"} {
		if got := slow[name].meanUs() - base[name].meanUs(); math.Abs(got) > tol {
			t.Errorf("%s moved by %.2f us with the delay on gf.dot", name, got)
		}
	}
	got := slow["core.read"].selfUs() - base["core.read"].selfUs()
	if math.Abs(got+d) > tol {
		t.Errorf("core.read unexplained remainder moved by %.2f us, want -%.0f", got, d)
	}
}
