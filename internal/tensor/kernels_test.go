package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// refGemm is the reference C += A*B in the exact (i, k, j) order the
// parallel kernel must reproduce per output row.
func refGemm(a, b, c *Mat) {
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				c.Set(i, j, c.At(i, j)+av*b.At(k, j))
			}
		}
	}
}

func randMat(seed int64, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	RandN(RNG(seed), m.Data, 1)
	// Sprinkle exact zeros to exercise the skip branches.
	for i := 7; i < len(m.Data); i += 13 {
		m.Data[i] = 0
	}
	return m
}

// withWorkers runs fn at the given parallelism and restores the
// default afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	SetWorkers(n)
	defer SetWorkers(0)
	fn()
}

func matsEqual(a, b *Mat) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestGemmMatchesNaive pins the parallel Gemm to the reference loop
// order exactly (the unrolled axpy preserves per-element order).
func TestGemmMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 9, 33}, {64, 64, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randMat(1, m, k), randMat(2, k, n)
		want := NewMat(m, n)
		refGemm(a, b, want)
		got := NewMat(m, n)
		Gemm(a, b, got)
		if !matsEqual(want, got) {
			t.Fatalf("Gemm(%dx%dx%d) differs from reference", m, k, n)
		}
	}
}

// TestKernelsDeterministicAcrossWorkers is the kernel-layer determinism
// contract: every GEMM variant is bit-identical at worker counts 1, 2,
// 3, 4 and 8 (including counts exceeding GOMAXPROCS).
func TestKernelsDeterministicAcrossWorkers(t *testing.T) {
	kernels := []struct {
		name string
		run  func() *Mat
	}{
		{"MatMul", func() *Mat {
			a, b, c := randMat(3, 37, 29), randMat(4, 29, 41), NewMat(37, 41)
			MatMul(a, b, c)
			return c
		}},
		{"Gemm", func() *Mat {
			a, b, c := randMat(5, 37, 29), randMat(6, 29, 41), randMat(7, 37, 41)
			Gemm(a, b, c)
			return c
		}},
		{"GemmTA", func() *Mat {
			a, b, c := randMat(8, 29, 37), randMat(9, 29, 41), randMat(10, 37, 41)
			GemmTA(a, b, c)
			return c
		}},
		{"MatMulBias", func() *Mat {
			a, b, c := randMat(14, 37, 29), randMat(15, 29, 41), NewMat(37, 41)
			bias := make([]float64, 41)
			RandN(RNG(16), bias, 1)
			MatMulBias(a, b, bias, c)
			return c
		}},
		{"MatMulTB", func() *Mat {
			a, b, c := randMat(17, 37, 29), randMat(18, 41, 29), NewMat(37, 41)
			MatMulTB(a, b, c)
			return c
		}},
	}
	for _, kn := range kernels {
		t.Run(kn.name, func(t *testing.T) {
			var ref *Mat
			withWorkers(t, 1, func() { ref = kn.run().Clone() })
			for _, w := range []int{2, 3, 4, 8} {
				var got *Mat
				withWorkers(t, w, func() { got = kn.run() })
				if !matsEqual(ref, got) {
					t.Fatalf("%s differs between workers=1 and workers=%d", kn.name, w)
				}
			}
		})
	}
}

// TestParallelForCoversOnce checks the partition: every index in [0, n)
// is visited exactly once for a spread of sizes and worker counts.
func TestParallelForCoversOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7} {
		for _, n := range []int{0, 1, 2, 5, 64, 1000} {
			withWorkers(t, w, func() {
				counts := make([]int32, n)
				var mu sync.Mutex
				ParallelFor(n, 1, func(lo, hi int) {
					mu.Lock()
					for i := lo; i < hi; i++ {
						counts[i]++
					}
					mu.Unlock()
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("w=%d n=%d: index %d visited %d times", w, n, i, c)
					}
				}
			})
		}
	}
}

// TestParallelForConcurrentCallers drives many simultaneous top-level
// ParallelFor calls (the experiment-scheduler shape) through the shared
// pool; run with -race to validate the pool's synchronization.
func TestParallelForConcurrentCallers(t *testing.T) {
	withWorkers(t, 4, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				for rep := 0; rep < 10; rep++ {
					a, b, c := randMat(seed, 33, 17), randMat(seed+1, 17, 21), NewMat(33, 21)
					MatMul(a, b, c)
				}
			}(int64(g))
		}
		wg.Wait()
	})
}

// TestEnsureMat covers reuse, growth and the zeroing contract.
func TestEnsureMat(t *testing.T) {
	m := EnsureMat(nil, 3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape %dx%d", m.Rows, m.Cols)
	}
	Fill(m.Data, 5)
	backing := &m.Data[0]
	m2 := EnsureMat(m, 2, 5)
	if m2 != m || &m2.Data[0] != backing {
		t.Fatal("EnsureMat reallocated despite sufficient capacity")
	}
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("EnsureMat did not zero reused data")
		}
	}
	m3 := EnsureMat(m2, 10, 10)
	if len(m3.Data) != 100 {
		t.Fatal("EnsureMat failed to grow")
	}
	u := EnsureMatUninit(nil, 2, 2)
	Fill(u.Data, 3)
	u = EnsureMatUninit(u, 1, 4)
	if u.Rows != 1 || u.Cols != 4 {
		t.Fatal("EnsureMatUninit reshape failed")
	}
}

// TestScaleAdd checks the fused kernel against the scalar loop on an
// odd length (tail path included).
func TestScaleAdd(t *testing.T) {
	n := 101
	x, y, dst := make([]float64, n), make([]float64, n), make([]float64, n)
	RandN(RNG(21), x, 1)
	RandN(RNG(22), y, 1)
	ScaleAdd(dst, 0.25, x, y)
	for i := range dst {
		if want := 0.25*x[i] + y[i]; math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("ScaleAdd[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

// TestMatMulShapePanics keeps the shape checks intact on every variant.
func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(NewMat(2, 3), NewMat(4, 5), NewMat(2, 5))
}

func ExampleSetWorkers() {
	a := NewMatFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatFrom(2, 2, []float64{5, 6, 7, 8})
	c := NewMat(2, 2)
	SetWorkers(4)
	MatMul(a, b, c)
	SetWorkers(0)
	fmt.Println(c.Data)
	// Output: [19 22 43 50]
}
