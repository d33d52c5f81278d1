package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClMul64Basics(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{2, 2, 0, 4},
		{0xffffffffffffffff, 1, 0, 0xffffffffffffffff},
		{1 << 63, 2, 1, 0},
		{1 << 63, 1 << 63, 1 << 62, 0},
	}
	for _, c := range cases {
		hi, lo := ClMul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("ClMul64(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestClMulCommutative(t *testing.T) {
	f := func(a, b uint64) bool {
		h1, l1 := ClMul64(a, b)
		h2, l2 := ClMul64(b, a)
		return h1 == h2 && l1 == l2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Carry-less multiplication distributes over XOR.
func TestClMulDistributive(t *testing.T) {
	f := func(a, b, c uint64) bool {
		h1, l1 := ClMul64(a, b^c)
		h2, l2 := ClMul64(a, b)
		h3, l3 := ClMul64(a, c)
		return h1 == (h2^h3) && l1 == (l2^l3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mulOracle is the bit-serial reference for Mul: reduce the high half
// by carry-less multiplication with the low half of the polynomial
// x^64 + x^4 + x^3 + x + 1 (0x1b), twice.
func mulOracle(a, b uint64) uint64 {
	hi, lo := ClMul64(a, b)
	h2, l2 := ClMul64(hi, 0x1b)
	_, l3 := ClMul64(h2, 0x1b)
	return lo ^ l2 ^ l3
}

// Mul's shift-based reduction must agree with the ClMul64 reduction on
// edge operands and on random pairs, including ones with the top
// nibble set (the bits whose overflow needs the second fold).
func TestMulMatchesOracle(t *testing.T) {
	edges := []uint64{0, 1, 2, 0x1b, 1 << 60, 1 << 63, 0xf000000000000000, ^uint64(0)}
	for _, a := range edges {
		for _, b := range edges {
			if got, want := Mul(a, b), mulOracle(a, b); got != want {
				t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if i%2 == 0 {
			a |= 0xf << 60
			b |= 0xf << 60
		}
		if got, want := Mul(a, b), mulOracle(a, b); got != want {
			t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

func TestMulFieldAxioms(t *testing.T) {
	one := func(a uint64) bool { return Mul(a, 1) == a && Mul(1, a) == a }
	if err := quick.Check(one, nil); err != nil {
		t.Error("identity:", err)
	}
	comm := func(a, b uint64) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error("commutativity:", err)
	}
	assoc := func(a, b, c uint64) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(assoc, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("associativity:", err)
	}
	distr := func(a, b, c uint64) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(distr, nil); err != nil {
		t.Error("distributivity:", err)
	}
	zero := func(a uint64) bool { return Mul(a, 0) == 0 }
	if err := quick.Check(zero, nil); err != nil {
		t.Error("zero:", err)
	}
}

// In a field there are no zero divisors: a,b != 0 => a*b != 0.
func TestMulNoZeroDivisors(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == 0 || b == 0 {
			return true
		}
		return Mul(a, b) != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Fermat: a^(2^64-1) == 1 for a != 0, i.e. a^(2^64) == a.
// Pow's exponent is uint64 so we check a^(2^64 - 1) * a == a via
// Pow(a, 2^64-1) == 1.
func TestMulFermat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		a := rng.Uint64()
		if a == 0 {
			continue
		}
		if got := Pow(a, ^uint64(0)); got != 1 {
			t.Fatalf("a^(2^64-1) = %#x, want 1 (a=%#x)", got, a)
		}
	}
}

func TestPow(t *testing.T) {
	if Pow(5, 0) != 1 {
		t.Error("a^0 != 1")
	}
	if Pow(5, 1) != 5 {
		t.Error("a^1 != a")
	}
	if Pow(5, 2) != Mul(5, 5) {
		t.Error("a^2 != a*a")
	}
	if Pow(5, 5) != Mul(Mul(Mul(Mul(5, 5), 5), 5), 5) {
		t.Error("a^5 wrong")
	}
}

func TestDotProduct(t *testing.T) {
	data := []uint64{1, 2, 3}
	keys := []uint64{10, 20, 30}
	want := Mul(1, 10) ^ Mul(2, 20) ^ Mul(3, 30)
	if got := DotProduct(data, keys); got != want {
		t.Errorf("DotProduct = %#x, want %#x", got, want)
	}
}

func TestDotProductPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on length mismatch")
		}
	}()
	DotProduct([]uint64{1}, []uint64{1, 2})
}

// A dot-product MAC with power keys is a polynomial evaluation; it must
// detect any single-word change (no two distinct single-word messages
// collide under a random nonzero key).
func TestDotProductDetectsChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := KeySchedule(rng.Uint64(), 8)
	data := make([]uint64, 8)
	for i := range data {
		data[i] = rng.Uint64()
	}
	base := DotProduct(data, keys)
	for i := 0; i < 8; i++ {
		mod := append([]uint64(nil), data...)
		mod[i] ^= 1 << uint(rng.Intn(64))
		if DotProduct(mod, keys) == base {
			t.Errorf("single-bit change in word %d not detected", i)
		}
	}
}

func TestKeySchedule(t *testing.T) {
	keys := KeySchedule(7, 4)
	if keys[0] != 7 {
		t.Errorf("keys[0] = %#x, want 7", keys[0])
	}
	if keys[1] != Mul(7, 7) {
		t.Error("keys[1] != k^2")
	}
	if keys[3] != Pow(7, 4) {
		t.Error("keys[3] != k^4")
	}
	// Zero secret must still give usable (nonzero) keys.
	for i, k := range KeySchedule(0, 4) {
		if k == 0 {
			t.Errorf("KeySchedule(0)[%d] = 0", i)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	x := uint64(0x123456789abcdef0)
	for i := 0; i < b.N; i++ {
		x = Mul(x, 0x9e3779b97f4a7c15)
	}
	_ = x
}

func BenchmarkDotProduct8(b *testing.B) {
	keys := KeySchedule(12345, 8)
	data := make([]uint64, 8)
	for i := range data {
		data[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for i := 0; i < b.N; i++ {
		DotProduct(data, keys)
	}
}
