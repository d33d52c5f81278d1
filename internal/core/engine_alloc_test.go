package core

import (
	"testing"

	"counterlight/internal/cipher"
	"counterlight/internal/epoch"
)

func allocTestEngine(t *testing.T) *Engine {
	t.Helper()
	opts := DefaultEngineOptions()
	opts.MemSize = 1 << 20
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func allocTestBlock(seed byte) cipher.Block {
	var b cipher.Block
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// TestReadHitNoAllocs pins the fault-free read path at zero
// allocations per operation in both encryption modes — the hot-path
// guarantee the clbench engine/read_hit benchmark gates in CI.
func TestReadHitNoAllocs(t *testing.T) {
	e := allocTestEngine(t)
	if err := e.Write(0, allocTestBlock(1), epoch.CounterMode); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(64, allocTestBlock(2), epoch.Counterless); err != nil {
		t.Fatal(err)
	}
	for name, addr := range map[string]uint64{"counter": 0, "counterless": 64} {
		// Warm up once (lazy pad-cache fill) and check correctness.
		if _, _, err := e.Read(addr); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := e.Read(addr); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s read hit allocates %.1f per op, want 0", name, allocs)
		}
	}
}

// TestPrecomputeReadPads checks the batch precompute stage: it derives
// pads only for counter-mode blocks, subsequent reads decrypt
// correctly from the cache, and the steady-state path (engine-owned
// buffers already grown) performs no allocation.
func TestPrecomputeReadPads(t *testing.T) {
	e := allocTestEngine(t)
	// Two address sets that alias to the same pad-cache slots, so
	// precomputing one always evicts the other: every AllocsPerRun
	// iteration below exercises the full PadBatch path rather than the
	// everything-cached early exit.
	const n = 16
	setA := make([]uint64, n)
	setB := make([]uint64, n)
	want := make(map[uint64]cipher.Block, 2*n)
	for i := 0; i < n; i++ {
		setA[i] = uint64(i) * 64
		setB[i] = setA[i] + padCacheSize*64
		for _, addr := range []uint64{setA[i], setB[i]} {
			blk := allocTestBlock(byte(addr >> 6))
			if err := e.Write(addr, blk, epoch.CounterMode); err != nil {
				t.Fatal(err)
			}
			want[addr] = blk
		}
	}
	// One counterless block and one unwritten address must be skipped.
	if err := e.Write(setA[0]+512*64, allocTestBlock(0xcc), epoch.Counterless); err != nil {
		t.Fatal(err)
	}
	mixed := append(append([]uint64{}, setA...), setA[0]+512*64, 1<<19+64*63)
	if got := e.PrecomputeReadPads(mixed); got != n {
		t.Fatalf("PrecomputeReadPads = %d, want %d (counterless/unwritten must be skipped)", got, n)
	}
	// Cached pads must decrypt to the written plaintext.
	for _, addr := range setA {
		plain, info, err := e.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if plain != want[addr] {
			t.Fatalf("read after precompute returned wrong plaintext at %#x", addr)
		}
		if info.Mode != epoch.CounterMode {
			t.Fatalf("block at %#x not in counter mode", addr)
		}
	}
	// Everything cached: a second call derives nothing.
	e.PrecomputeReadPads(setA)
	if got := e.PrecomputeReadPads(setA); got != 0 {
		t.Fatalf("second PrecomputeReadPads = %d, want 0", got)
	}
	// Steady state (buffers grown, cache thrashing between the two
	// aliasing sets) must not allocate.
	e.PrecomputeReadPads(setB)
	if allocs := testing.AllocsPerRun(100, func() {
		if got := e.PrecomputeReadPads(setA); got != n {
			t.Fatalf("aliased precompute = %d, want %d", got, n)
		}
		if got := e.PrecomputeReadPads(setB); got != n {
			t.Fatalf("aliased precompute = %d, want %d", got, n)
		}
	}); allocs != 0 {
		t.Errorf("steady-state PrecomputeReadPads allocates %.1f per call pair, want 0", allocs)
	}
}

// TestEngineCipherBackends checks that an engine on each backend is
// bit-exact with the default: same stored codewords, same read
// results, and that the reference twins expose the same keys.
func TestEngineCipherBackends(t *testing.T) {
	build := func(backend string) *Engine {
		opts := DefaultEngineOptions()
		opts.MemSize = 1 << 20
		opts.Cipher = backend
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, backend := range []string{"stdlib"} {
		// A fresh reference twin per backend: engine counters advance
		// on every write, so a shared oracle would drift ahead.
		ref := build("ref")
		e := build(backend)
		if e.CipherBackend() != backend {
			t.Fatalf("CipherBackend() = %q, want %q", e.CipherBackend(), backend)
		}
		for i, mode := range []epoch.Mode{epoch.CounterMode, epoch.Counterless, epoch.CounterMode} {
			addr := uint64(i) * 64
			blk := allocTestBlock(byte(i))
			if err := ref.Write(addr, blk, mode); err != nil {
				t.Fatal(err)
			}
			if err := e.Write(addr, blk, mode); err != nil {
				t.Fatal(err)
			}
			refCW, _ := ref.Snapshot(addr)
			cw, _ := e.Snapshot(addr)
			if refCW != cw {
				t.Fatalf("%s: stored codeword diverges from ref at %#x", backend, addr)
			}
			plain, _, err := e.Read(addr)
			if err != nil {
				t.Fatal(err)
			}
			if plain != blk {
				t.Fatalf("%s: read returned wrong plaintext", backend)
			}
		}
		// The reference twins must agree with the engine's own ciphers
		// on a sample MAC/pad (same keys, different backend).
		var b cipher.Block
		if got, want := e.ReferenceCounterCipher().Pad(5, 128), e.CounterCipher().Pad(5, 128); got != want {
			t.Fatalf("%s: reference counter cipher diverges", backend)
		}
		if got, want := e.ReferenceCounterlessCipher(0).MAC(128, b, 7), e.CounterlessCipher(0).MAC(128, b, 7); got != want {
			t.Fatalf("%s: reference counterless cipher diverges", backend)
		}
		if e.ReferenceCounterlessCipher(0).Backend() != "ref" {
			t.Fatalf("reference twin not on ref backend")
		}
	}
	// An engine already on ref reuses its own ciphers as the twins.
	refEng := build("ref")
	if refEng.ReferenceCounterCipher() != refEng.CounterCipher() {
		t.Fatal("ref engine should expose its own cipher as the reference twin")
	}
	// Unknown backend must fail loudly.
	opts := DefaultEngineOptions()
	opts.Cipher = "aes-ni"
	if _, err := NewEngine(opts); err == nil {
		t.Fatal("NewEngine accepted unknown cipher backend")
	}
}
