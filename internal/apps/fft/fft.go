// Package fft implements the 2D-FFT application kernel of paper §6.1.1:
// radix-2 complex FFTs computed locally plus the distributed array
// transpose whose communication step the paper measures. The transpose
// is the performance-critical redistribution: it turns a row-major
// distribution into a column-major one so the column FFTs run with
// locality (paper Figure 9).
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT computes the in-place radix-2 decimation-in-time FFT of x.
// len(x) must be a power of two. With inverse set, the inverse
// transform (including the 1/n scaling) is computed.
func FFT(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}

// DFT computes the naive O(n^2) discrete Fourier transform, used as the
// reference in tests.
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

// Transpose returns the transpose of a rectangular matrix.
func Transpose(a [][]complex128) [][]complex128 {
	if len(a) == 0 {
		return nil
	}
	rows, cols := len(a), len(a[0])
	out := make([][]complex128, cols)
	cells := make([]complex128, rows*cols)
	for j := range out {
		out[j], cells = cells[:rows], cells[rows:]
		for i := 0; i < rows; i++ {
			out[j][i] = a[i][j]
		}
	}
	return out
}
