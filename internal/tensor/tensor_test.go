package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAxpyDotNorm(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	Axpy(2, x, y)
	want := []float64{6, 9, 12}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("axpy: %v", y)
		}
	}
	if Dot(x, x) != 14 {
		t.Fatalf("dot")
	}
	if math.Abs(Norm2(x)-math.Sqrt(14)) > 1e-15 {
		t.Fatalf("norm")
	}
}

func TestAxpyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Axpy(1, []float64{1}, []float64{1, 2})
}

func TestScaleFillCopyAdd(t *testing.T) {
	x := []float64{3, 6}
	c := Copy(x)
	c[0] = 99
	if x[0] == 99 {
		t.Fatal("copy aliases")
	}
	Fill(x, 7)
	if x[0] != 7 || x[1] != 7 {
		t.Fatal("fill")
	}
	z := make([]float64, 2)
	Add(x, x, z)
	if z[0] != 14 {
		t.Fatal("add")
	}
}

func TestStats(t *testing.T) {
	x := []float64{-2, -1, 1, 2}
	if Mean(x) != 0 {
		t.Fatal("mean")
	}
	if math.Abs(stdDev(x)-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std %v", stdDev(x))
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
}

// stdDev returns the population standard deviation of x, the fixture
// the RNG tests check spreads with.
func stdDev(x []float64) float64 {
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("at/set")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 5 {
		t.Fatal("row")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("clone aliases")
	}
	w := NewMatFrom(2, 2, []float64{1, 2, 3, 4})
	if w.At(1, 0) != 3 {
		t.Fatal("from")
	}
}

func TestMatFromWrongLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatFrom(2, 2, []float64{1})
}

// naiveGemm is the O(n³) reference.
func naiveGemm(a, b *Mat) *Mat {
	c := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randomMat(r, c int, seed int64) *Mat {
	m := NewMat(r, c)
	rng := RNG(seed)
	RandN(rng, m.Data, 1)
	return m
}

func TestGemmVariants(t *testing.T) {
	a := randomMat(7, 5, 1)
	b := randomMat(5, 6, 2)
	want := naiveGemm(a, b)

	c := NewMat(7, 6)
	Gemm(a, b, c)
	for i := range want.Data {
		if math.Abs(c.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("gemm[%d]=%v want %v", i, c.Data[i], want.Data[i])
		}
	}

	// GemmTA: C += Aᵀ·B with A stored transposed (5x7→7 rows... A is K×M).
	at := NewMat(5, 7)
	for i := 0; i < 7; i++ {
		for k := 0; k < 5; k++ {
			at.Set(k, i, a.At(i, k))
		}
	}
	cta := NewMat(7, 6)
	GemmTA(at, b, cta)
	for i := range want.Data {
		if math.Abs(cta.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("gemmTA mismatch at %d", i)
		}
	}

	// MatMulTB: C = A·Bᵀ with B stored transposed (6x5).
	bt := NewMat(6, 5)
	for k := 0; k < 5; k++ {
		for j := 0; j < 6; j++ {
			bt.Set(j, k, b.At(k, j))
		}
	}
	ctb := NewMat(7, 6)
	MatMulTB(a, bt, ctb)
	for i := range want.Data {
		if math.Abs(ctb.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("matmulTB mismatch at %d", i)
		}
	}
}

func TestGemmShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gemm(NewMat(2, 3), NewMat(4, 2), NewMat(2, 2))
}

func TestRNGDeterministic(t *testing.T) {
	a := RNG(42).Float64()
	b := RNG(42).Float64()
	if a != b {
		t.Fatal("RNG not deterministic per seed")
	}
}

func TestRandHelpers(t *testing.T) {
	r := RNG(1)
	x := make([]float64, 1000)
	RandUniform(r, x, -1, 1)
	for _, v := range x {
		if v < -1 || v >= 1 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
	XavierInit(r, x, 100, 100)
	limit := math.Sqrt(6.0 / 200)
	for _, v := range x {
		if v < -limit || v >= limit {
			t.Fatalf("xavier out of range: %v", v)
		}
	}
	RandN(r, x, 2)
	if math.Abs(stdDev(x)-2) > 0.3 {
		t.Fatalf("randn sigma: %v", stdDev(x))
	}
}

// Property: Dot is symmetric and Norm2² ≈ Dot(x,x).
func TestDotNormProperty(t *testing.T) {
	f := func(raw []float64) bool {
		x := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				x = append(x, v)
			}
		}
		n := Norm2(x)
		d := Dot(x, x)
		return math.Abs(n*n-d) <= 1e-9*(1+d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
