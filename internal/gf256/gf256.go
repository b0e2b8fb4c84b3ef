// Package gf256 implements arithmetic over the finite field GF(2^8) and the
// small amount of linear algebra needed by systematic Reed–Solomon erasure
// coding (see internal/fec).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by most
// storage-oriented Reed–Solomon implementations. Multiplication and division
// are table-driven (log/exp tables built at construction time), so the hot
// paths used by FEC encoding reduce to two table lookups and an addition.
//
// All operations are pure functions of their inputs; the package holds no
// mutable global state beyond the immutable tables embedded in Field.
package gf256

import (
	"errors"
	"fmt"
	"sync"
)

// Polynomial is the primitive polynomial used to construct the field,
// expressed with the x^8 term included (bit 8 set).
const Polynomial = 0x11d

// Order is the number of elements in GF(2^8).
const Order = 256

// ErrSingular is returned when a matrix that must be inverted (or a linear
// system that must be solved) is rank deficient.
var ErrSingular = errors.New("gf256: matrix is singular")

// Field holds the log/exp tables for GF(2^8) arithmetic. The zero value is
// not usable; obtain one with NewField. Field is immutable after creation
// and safe for concurrent use.
type Field struct {
	exp [2 * Order]byte // exp[i] = g^i, doubled to avoid mod in Mul
	log [Order]byte     // log[x] = i such that g^i = x; log[0] unused
	mul *[Order][Order]byte
}

// productTable returns mul[a][b] = a·b for every pair, 64 KiB, built on the
// first call and shared by every Field after it. It is computed by
// carry-less multiplication reduced by Polynomial, independently of the
// log/exp tables.
var productTable = sync.OnceValue(func() *[Order][Order]byte {
	mul := new([Order][Order]byte)
	for a := 1; a < Order; a++ {
		for b := 1; b < Order; b++ {
			var p, av, bv uint16 = 0, uint16(a), uint16(b)
			for ; bv != 0; bv >>= 1 {
				if bv&1 != 0 {
					p ^= av
				}
				if av <<= 1; av&0x100 != 0 {
					av ^= Polynomial
				}
			}
			mul[a][b] = byte(p)
		}
	}
	return mul
})

// NewField builds the log/exp tables for GF(2^8) with generator 2 under
// Polynomial.
func NewField() *Field {
	f := &Field{mul: productTable()}
	x := 1
	for i := 0; i < Order-1; i++ {
		f.exp[i] = byte(x)
		f.log[x] = byte(i)
		x <<= 1
		if x >= Order {
			x ^= Polynomial
		}
	}
	// Double the exp table so Mul can index exp[log a + log b] directly
	// without a modular reduction.
	for i := Order - 1; i < 2*Order; i++ {
		f.exp[i] = f.exp[i-(Order-1)]
	}
	return f
}

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse, so Sub
// is identical to Add.
func (f *Field) Add(a, b byte) byte { return a ^ b }

// Sub returns a-b in GF(2^8), which equals Add(a, b).
func (f *Field) Sub(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func (f *Field) Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+int(f.log[b])]
}

// Div returns a/b in GF(2^8). Dividing by zero panics, mirroring integer
// division: callers must guarantee b != 0 (decode paths check pivots and
// return ErrSingular before dividing).
func (f *Field) Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(f.log[a]) - int(f.log[b])
	if d < 0 {
		d += Order - 1
	}
	return f.exp[d]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func (f *Field) Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return f.exp[(Order-1)-int(f.log[a])]
}

// Exp returns the generator raised to the power e (e may be any non-negative
// integer; it is reduced modulo 255).
func (f *Field) Exp(e int) byte {
	if e < 0 {
		panic("gf256: negative exponent")
	}
	return f.exp[e%(Order-1)]
}

// MulSlice sets dst[i] = c * src[i] for all i. dst and src must have the
// same length; they may alias.
func (f *Field) MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	row := &f.mul[c]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s, d := src[i:i+8:i+8], dst[i:i+8:i+8]
		d[0] = row[s[0]]
		d[1] = row[s[1]]
		d[2] = row[s[2]]
		d[3] = row[s[3]]
		d[4] = row[s[4]]
		d[5] = row[s[5]]
		d[6] = row[s[6]]
		d[7] = row[s[7]]
	}
	for ; i < len(src); i++ {
		dst[i] = row[src[i]]
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] for all i; this is the inner loop of
// Reed–Solomon encoding. dst and src must have the same length and must not
// alias unless c is zero.
func (f *Field) MulAddSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	row := &f.mul[c]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s, d := src[i:i+8:i+8], dst[i:i+8:i+8]
		d[0] ^= row[s[0]]
		d[1] ^= row[s[1]]
		d[2] ^= row[s[2]]
		d[3] ^= row[s[3]]
		d[4] ^= row[s[4]]
		d[5] ^= row[s[5]]
		d[6] ^= row[s[6]]
		d[7] ^= row[s[7]]
	}
	for ; i < len(src); i++ {
		dst[i] ^= row[src[i]]
	}
}

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	Rows, Cols int
	Data       []byte // len == Rows*Cols, row-major
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf256: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a slice aliasing row r.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows x cols Vandermonde matrix V[r][c] = r^c
// evaluated in GF(2^8) with row index r taken as the field element r.
// Rows with distinct indices are linearly independent as long as rows <= 256,
// which makes the matrix suitable for constructing MDS erasure codes.
func Vandermonde(f *Field, rows, cols int) *Matrix {
	if rows > Order {
		panic("gf256: Vandermonde rows exceed field order")
	}
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		v := byte(1)
		for c := 0; c < cols; c++ {
			m.Set(r, c, v)
			v = f.Mul(v, byte(r))
		}
		// r == 0 row is [1, 0, 0, ...] which the loop produces since
		// Mul(v, 0) == 0.
	}
	return m
}

// Mul returns the matrix product a*b. It panics if the inner dimensions do
// not agree.
func (f *Field) MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("gf256: MatMul dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			f.MulAddSlice(av, or, b.Row(k))
		}
	}
	return out
}

// Invert returns the inverse of the square matrix m, computed by
// Gauss–Jordan elimination with partial pivoting (pivoting is by nonzero
// search; in GF(2^8) there is no numeric-stability concern). It returns
// ErrSingular if m is not invertible. m is not modified.
func (f *Field) Invert(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("gf256: cannot invert non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	work := m.Clone()
	out := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot row at or below col.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		work.SwapRows(col, pivot)
		out.SwapRows(col, pivot)
		// Normalize the pivot row.
		if pv := work.At(col, col); pv != 1 {
			inv := f.Inv(pv)
			f.MulSlice(inv, work.Row(col), work.Row(col))
			f.MulSlice(inv, out.Row(col), out.Row(col))
		}
		// Eliminate the column from all other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if c := work.At(r, col); c != 0 {
				f.MulAddSlice(c, work.Row(r), work.Row(col))
				f.MulAddSlice(c, out.Row(r), out.Row(col))
			}
		}
	}
	return out, nil
}

// SubMatrix returns a new matrix consisting of the given rows of m.
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}
