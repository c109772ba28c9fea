package tensor

import (
	"fmt"
	"testing"
)

// BenchmarkMatMul measures the parallel GEMM at model-shaped sizes
// (square, LSTM-gate-shaped, attention-projection-shaped). Throughput
// is bytes of A+B+C per op. Numbers are tracked in BENCH_kernels.json.
func BenchmarkMatMul(b *testing.B) {
	sizes := [][3]int{{128, 128, 128}, {512, 64, 256}, {1024, 40, 512}}
	for _, d := range sizes {
		m, k, n := d[0], d[1], d[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			r := RNG(1)
			a, bm, c := NewMat(m, k), NewMat(k, n), NewMat(m, n)
			RandN(r, a.Data, 1)
			RandN(r, bm.Data, 1)
			b.SetBytes(int64(8 * (m*k + k*n + m*n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(a, bm, c)
			}
		})
	}
}

// BenchmarkMatMulTB exercises the dot-product variant used by every
// backward pass.
func BenchmarkMatMulTB(b *testing.B) {
	m, k, n := 256, 128, 256
	r := RNG(2)
	a, bm, c := NewMat(m, k), NewMat(n, k), NewMat(m, n)
	RandN(r, a.Data, 1)
	RandN(r, bm.Data, 1)
	b.SetBytes(int64(8 * (m*k + n*k + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTB(a, bm, c)
	}
}
