package keccak

import (
	"bytes"
	stdsha3 "crypto/sha3"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
)

// prefix64 is the MAC64 view of a full digest: its first 8 bytes,
// little-endian.
func prefix64(t *testing.T, digestHex string) uint64 {
	t.Helper()
	b, err := hex.DecodeString(digestHex)
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(b)
}

// NIST FIPS-202 SHA3-256 known answers, checked through MAC64's 8-byte
// prefix with an empty key (MAC64 hashes key || data, so the message
// may sit in either argument).
func TestSHA3KnownAnswers(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"256-empty", "",
			"a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"},
		{"256-abc", "abc",
			"3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"},
		{"256-448bit", "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
			"41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376"},
		{"256-896bit", "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
			"916f6061fe879741ca6469b43971dfdb28b1a32dc36cb3254e812be27aad1d18"},
		{"256-million-a", strings.Repeat("a", 1000000),
			"5c8875ae474a3634ba4fd55ec85bffd661f32aca75c6d699d0cdcb6c115891c1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := prefix64(t, tc.want)
			msg := []byte(tc.in)
			if got := MAC64(nil, msg); got != want {
				t.Errorf("MAC64(nil, msg) = %#016x, want %#016x", got, want)
			}
			if got := MAC64(msg); got != want {
				t.Errorf("MAC64(msg) = %#016x, want %#016x", got, want)
			}
		})
	}
}

// Cross-check against the standard library's full digest for random
// keys and data of many lengths, including rate-boundary sizes.
func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lengths := []int{0, 1, 7, 8, 63, 64, 71, 72, 73, 135, 136, 137, 200, 271, 272, 273, 1000, 4096}
	for _, n := range lengths {
		msg := make([]byte, n)
		rng.Read(msg)
		k := rng.Intn(n + 1)
		sum := stdsha3.Sum256(msg)
		if got, want := MAC64(msg[:k], msg[k:]), binary.LittleEndian.Uint64(sum[:]); got != want {
			t.Errorf("len=%d key=%d: MAC64 = %#016x, stdlib prefix = %#016x", n, k, got, want)
		}
	}
}

// Absorbing the data as many short segments, crossing the rate
// boundary several times, must equal absorbing it in one piece.
func TestIncrementalWrite(t *testing.T) {
	data := make([]byte, 1000)
	rand.New(rand.NewSource(3)).Read(data)
	var segs [][]byte
	for i := 0; i < len(data); i += 17 {
		segs = append(segs, data[i:min(i+17, len(data))])
	}
	key := []byte("incremental-key")
	if MAC64(key, segs...) != MAC64(key, data) {
		t.Error("segmented MAC64 differs from one-shot")
	}
}

// TestMAC64Golden pins MAC64 outputs recorded from the hand-rolled
// Keccak sponge this package used to run, so every stored MAC,
// conformance golden and fuzz corpus keyed on them stays valid. Key
// and data bytes follow pattern(); the lengths straddle the 136-byte
// SHA3-256 rate, split as key+data and key+data+data, plus the
// ctrblock node shape (22-byte key, 528-byte node) and the counterless
// shape (12-byte header + 64-byte block).
func TestMAC64Golden(t *testing.T) {
	pattern := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)*31 + seed
		}
		return b
	}
	cases := []struct {
		keyLen int
		segs   []int
		want   uint64
	}{
		{0, []int{0}, 0x66d71ebff8c6ffa7},
		{0, []int{0, 0}, 0x66d71ebff8c6ffa7},
		{0, []int{1}, 0xa6807f7736271e0a},
		{0, []int{0, 1}, 0xa6807f7736271e0a},
		{45, []int{90}, 0x2fec06db681536ac},
		{45, []int{45, 45}, 0x2fec06db681536ac},
		{45, []int{91}, 0x4bb8f63db9dc16f9},
		{45, []int{45, 46}, 0x4bb8f63db9dc16f9},
		{45, []int{92}, 0x2ec7e41276b054c6},
		{45, []int{46, 46}, 0x2ec7e41276b054c6},
		{90, []int{181}, 0xfaf3e7976365498e},
		{90, []int{90, 91}, 0xfaf3e7976365498e},
		{90, []int{182}, 0x1eba3fa11943b2aa},
		{90, []int{91, 91}, 0x1eba3fa11943b2aa},
		{176, []int{352}, 0x942d8f2581104190},
		{176, []int{176, 176}, 0x942d8f2581104190},
		{135, []int{0}, 0x15b4673e5270f63d},
		{136, []int{0}, 0x86f859b021938364},
		{137, []int{0}, 0x7f06b0aac757de45},
		{22, []int{528}, 0x469b4a5ec8d53f0f},
		{16, []int{12, 64}, 0xf41b5616584818d7},
		{32, []int{12, 64}, 0x8bce854f49b98753},
	}
	for _, tc := range cases {
		total := 0
		for _, n := range tc.segs {
			total += n
		}
		data := pattern(total, 2)
		segs := make([][]byte, len(tc.segs))
		for i, n := range tc.segs {
			segs[i], data = data[:n], data[n:]
		}
		if got := MAC64(pattern(tc.keyLen, 1), segs...); got != tc.want {
			t.Errorf("key=%d segs=%v: MAC64 = %#016x, want %#016x", tc.keyLen, tc.segs, got, tc.want)
		}
	}
}

// Property: different inputs give different MAC64 values with a key
// (collision would require a 64-bit hash collision in ~200 samples,
// which is effectively impossible).
func TestMAC64Distinct(t *testing.T) {
	key := []byte("0123456789abcdef")
	seen := map[uint64][]byte{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		msg := make([]byte, 64)
		rng.Read(msg)
		m := MAC64(key, msg)
		if prev, ok := seen[m]; ok && !bytes.Equal(prev, msg) {
			t.Fatalf("MAC64 collision between distinct messages")
		}
		seen[m] = msg
	}
}

// MAC64 must depend on the key and on every data segment.
func TestMAC64Inputs(t *testing.T) {
	a := MAC64([]byte("key1"), []byte("data"))
	if b := MAC64([]byte("key2"), []byte("data")); a == b {
		t.Error("MAC64 ignores key")
	}
	if b := MAC64([]byte("key1"), []byte("datb")); a == b {
		t.Error("MAC64 ignores data")
	}
	multi := MAC64([]byte("key1"), []byte("da"), []byte("ta"))
	if multi != a {
		t.Error("MAC64 segmentation should not matter")
	}
}

// MAC64 sits on the engine's per-op hot path; it must not allocate.
func TestMAC64NoAllocs(t *testing.T) {
	key := []byte("alloc-key")
	var hdr [12]byte
	var ct [64]byte
	allocs := testing.AllocsPerRun(100, func() {
		MAC64(key, hdr[:], ct[:])
	})
	if allocs != 0 {
		t.Fatalf("MAC64 allocates %.1f times per call, want 0", allocs)
	}
}
