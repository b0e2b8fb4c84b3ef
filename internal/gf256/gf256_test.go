package gf256

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFieldTables(t *testing.T) {
	f := NewField()
	// exp must cycle with period 255 and never produce zero.
	seen := make(map[byte]bool, Order-1)
	for i := 0; i < Order-1; i++ {
		v := f.exp[i]
		if v == 0 {
			t.Fatalf("exp[%d] = 0; generator powers must be nonzero", i)
		}
		if seen[v] {
			t.Fatalf("exp[%d] = %d repeats before full period", i, v)
		}
		seen[v] = true
	}
	if len(seen) != Order-1 {
		t.Fatalf("generator does not generate the full multiplicative group: %d elements", len(seen))
	}
	// log must be the inverse of exp.
	for i := 0; i < Order-1; i++ {
		if got := f.log[f.exp[i]]; int(got) != i {
			t.Fatalf("log[exp[%d]] = %d, want %d", i, got, i)
		}
	}
}

func TestAddIsXORAndSelfInverse(t *testing.T) {
	f := NewField()
	cases := []struct{ a, b byte }{{0, 0}, {1, 1}, {0x53, 0xca}, {255, 255}, {1, 254}}
	for _, c := range cases {
		if got := f.Add(c.a, c.b); got != c.a^c.b {
			t.Errorf("Add(%d,%d) = %d, want %d", c.a, c.b, got, c.a^c.b)
		}
		if got := f.Add(f.Add(c.a, c.b), c.b); got != c.a {
			t.Errorf("Add is not self-inverse for (%d,%d)", c.a, c.b)
		}
		if f.Sub(c.a, c.b) != f.Add(c.a, c.b) {
			t.Errorf("Sub(%d,%d) != Add(%d,%d)", c.a, c.b, c.a, c.b)
		}
	}
}

func TestMulBasicIdentities(t *testing.T) {
	f := NewField()
	for a := 0; a < Order; a++ {
		ab := byte(a)
		if got := f.Mul(ab, 0); got != 0 {
			t.Fatalf("Mul(%d, 0) = %d, want 0", a, got)
		}
		if got := f.Mul(0, ab); got != 0 {
			t.Fatalf("Mul(0, %d) = %d, want 0", a, got)
		}
		if got := f.Mul(ab, 1); got != ab {
			t.Fatalf("Mul(%d, 1) = %d, want %d", a, got, a)
		}
	}
}

func TestMulMatchesSlowMultiplication(t *testing.T) {
	f := NewField()
	// Carry-less "schoolbook" multiplication with reduction by the
	// primitive polynomial, used as an independent oracle.
	slow := func(a, b byte) byte {
		var p uint16
		av, bv := uint16(a), uint16(b)
		for i := 0; i < 8; i++ {
			if bv&1 != 0 {
				p ^= av
			}
			bv >>= 1
			av <<= 1
			if av&0x100 != 0 {
				av ^= Polynomial
			}
		}
		return byte(p)
	}
	for a := 0; a < Order; a++ {
		for b := 0; b < Order; b++ {
			if got, want := f.Mul(byte(a), byte(b)), slow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulCommutativeAssociativeDistributive(t *testing.T) {
	f := NewField()
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(func(a, b byte) bool {
		return f.Mul(a, b) == f.Mul(b, a)
	}, cfg); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	if err := quick.Check(func(a, b, c byte) bool {
		return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
	}, cfg); err != nil {
		t.Errorf("associativity: %v", err)
	}
	if err := quick.Check(func(a, b, c byte) bool {
		return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
	}, cfg); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

func TestDivAndInv(t *testing.T) {
	f := NewField()
	for a := 1; a < Order; a++ {
		inv := f.Inv(byte(a))
		if got := f.Mul(byte(a), inv); got != 1 {
			t.Fatalf("a * Inv(a) = %d for a=%d, want 1", got, a)
		}
		if got := f.Div(1, byte(a)); got != inv {
			t.Fatalf("Div(1, %d) = %d, want Inv = %d", a, got, inv)
		}
	}
	// Div is the inverse of Mul.
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return f.Div(f.Mul(a, b), b) == a
	}, cfg); err != nil {
		t.Errorf("Div(Mul(a,b), b) != a: %v", err)
	}
	if got := f.Div(0, 7); got != 0 {
		t.Errorf("Div(0, 7) = %d, want 0", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	f := NewField()
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	f.Div(3, 0)
}

func TestInvZeroPanics(t *testing.T) {
	f := NewField()
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	f.Inv(0)
}

func TestExp(t *testing.T) {
	f := NewField()
	if got := f.Exp(0); got != 1 {
		t.Errorf("Exp(0) = %d, want 1", got)
	}
	if got := f.Exp(1); got != 2 {
		t.Errorf("Exp(1) = %d, want 2 (generator)", got)
	}
	// Period 255.
	for e := 0; e < 300; e++ {
		if f.Exp(e) != f.Exp(e+255) {
			t.Fatalf("Exp period violated at e=%d", e)
		}
	}
}

func TestMulSliceAndMulAddSlice(t *testing.T) {
	f := NewField()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		src := make([]byte, n)
		rng.Read(src)
		c := byte(rng.Intn(Order))

		dst := make([]byte, n)
		f.MulSlice(c, dst, src)
		for i := range src {
			if want := f.Mul(c, src[i]); dst[i] != want {
				t.Fatalf("MulSlice c=%d idx=%d: got %d want %d", c, i, dst[i], want)
			}
		}

		acc := make([]byte, n)
		rng.Read(acc)
		want := make([]byte, n)
		for i := range acc {
			want[i] = acc[i] ^ f.Mul(c, src[i])
		}
		f.MulAddSlice(c, acc, src)
		for i := range acc {
			if acc[i] != want[i] {
				t.Fatalf("MulAddSlice c=%d idx=%d: got %d want %d", c, i, acc[i], want[i])
			}
		}
	}
}

// TestSliceKernelsMatchMul: MulSlice and MulAddSlice, which read one row of
// the shared product table eight bytes at a time, equal element-wise Mul for
// every coefficient at lengths around the unrolled block (0, 1, 7, 8, 9) and
// at a paper shard's 1316 bytes; MulSlice also in place.
func TestSliceKernelsMatchMul(t *testing.T) {
	f := NewField()
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, 8, 9, 1316} {
		src, acc := make([]byte, n), make([]byte, n)
		for c := 0; c < Order; c++ {
			rng.Read(src)
			rng.Read(acc)
			prod, sum, inPlace := make([]byte, n), slices.Clone(acc), slices.Clone(src)
			f.MulSlice(byte(c), prod, src)
			f.MulAddSlice(byte(c), sum, src)
			f.MulSlice(byte(c), inPlace, inPlace)
			for i, s := range src {
				want := f.Mul(byte(c), s)
				if prod[i] != want || inPlace[i] != want || sum[i] != acc[i]^want {
					t.Fatalf("n=%d c=%d i=%d: MulSlice %d, in place %d, MulAddSlice %d; want %d and %d",
						n, c, i, prod[i], inPlace[i], sum[i], want, acc[i]^want)
				}
			}
		}
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	f := NewField()
	defer func() {
		if recover() == nil {
			t.Fatal("MulSlice with mismatched lengths did not panic")
		}
	}()
	f.MulSlice(2, make([]byte, 3), make([]byte, 4))
}

func TestVandermondeInvertibility(t *testing.T) {
	f := NewField()
	// Any square Vandermonde with distinct row indices is invertible.
	for _, n := range []int{1, 2, 3, 5, 9, 16, 32} {
		v := Vandermonde(f, n, n)
		inv, err := f.Invert(v)
		if err != nil {
			t.Fatalf("Vandermonde %dx%d not invertible: %v", n, n, err)
		}
		prod := f.MatMul(v, inv)
		id := Identity(n)
		for i := range prod.Data {
			if prod.Data[i] != id.Data[i] {
				t.Fatalf("V * V^-1 != I for n=%d", n)
			}
		}
	}
}

func TestInvertSingular(t *testing.T) {
	f := NewField()
	m := NewMatrix(2, 2)
	m.Set(0, 0, 3)
	m.Set(0, 1, 5)
	m.Set(1, 0, 3)
	m.Set(1, 1, 5) // duplicate row -> singular
	if _, err := f.Invert(m); err != ErrSingular {
		t.Fatalf("Invert of singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	f := NewField()
	if _, err := f.Invert(NewMatrix(2, 3)); err == nil {
		t.Fatal("Invert of non-square matrix should fail")
	}
}

func TestMatMulIdentity(t *testing.T) {
	f := NewField()
	rng := rand.New(rand.NewSource(4))
	m := NewMatrix(7, 7)
	rng.Read(m.Data)
	id := Identity(7)
	left := f.MatMul(id, m)
	right := f.MatMul(m, id)
	for i := range m.Data {
		if left.Data[i] != m.Data[i] || right.Data[i] != m.Data[i] {
			t.Fatal("identity multiplication changed the matrix")
		}
	}
}

func TestMatrixRandomInvertRoundTrip(t *testing.T) {
	f := NewField()
	rng := rand.New(rand.NewSource(5))
	inverted := 0
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(12)
		m := NewMatrix(n, n)
		rng.Read(m.Data)
		inv, err := f.Invert(m)
		if err != nil {
			continue // random matrices can be singular; skip those
		}
		inverted++
		prod := f.MatMul(m, inv)
		id := Identity(n)
		for i := range prod.Data {
			if prod.Data[i] != id.Data[i] {
				t.Fatalf("M * M^-1 != I (n=%d, trial=%d)", n, trial)
			}
		}
	}
	if inverted == 0 {
		t.Fatal("no random matrix was invertible; suspicious")
	}
}

func TestSubMatrix(t *testing.T) {
	f := NewField()
	v := Vandermonde(f, 6, 3)
	sub := v.SubMatrix([]int{0, 2, 5})
	if sub.Rows != 3 || sub.Cols != 3 {
		t.Fatalf("SubMatrix dims = %dx%d, want 3x3", sub.Rows, sub.Cols)
	}
	for i, r := range []int{0, 2, 5} {
		for c := 0; c < 3; c++ {
			if sub.At(i, c) != v.At(r, c) {
				t.Fatalf("SubMatrix[%d][%d] mismatch", i, c)
			}
		}
	}
}

func TestSwapRows(t *testing.T) {
	m := NewMatrix(3, 2)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			m.Set(i, j, byte(10*i+j))
		}
	}
	m.SwapRows(0, 2)
	if m.At(0, 0) != 20 || m.At(2, 0) != 0 {
		t.Fatal("SwapRows did not exchange rows")
	}
	m.SwapRows(1, 1) // no-op must be safe
	if m.At(1, 1) != 11 {
		t.Fatal("SwapRows(i,i) corrupted the row")
	}
}

func BenchmarkMul(b *testing.B) {
	f := NewField()
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= f.Mul(byte(i), byte(i>>8))
	}
	_ = acc
}

func BenchmarkMulAddSlice1316(b *testing.B) {
	f := NewField()
	rng := rand.New(rand.NewSource(6))
	src := make([]byte, 1316)
	dst := make([]byte, 1316)
	rng.Read(src)
	b.SetBytes(1316)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MulAddSlice(byte(i%255+1), dst, src)
	}
}
