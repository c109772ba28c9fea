package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// referenceThreshold sorts |x| descending and returns the k-th value.
func referenceThreshold(x []float64, k int) float64 {
	abs := make([]float64, len(x))
	for i, v := range x {
		abs[i] = math.Abs(v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(abs)))
	if k > len(abs) {
		k = len(abs)
	}
	return abs[k-1]
}

func TestThresholdMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(500)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		k := 1 + r.Intn(n)
		got := Threshold(x, k)
		want := referenceThreshold(x, k)
		if got != want {
			t.Fatalf("trial %d (n=%d k=%d): threshold %v want %v", trial, n, k, got, want)
		}
	}
}

func TestThresholdEdgeCases(t *testing.T) {
	if !math.IsInf(Threshold(nil, 3), 1) {
		t.Fatal("empty input must give +inf")
	}
	if !math.IsInf(Threshold([]float64{1, 2}, 0), 1) {
		t.Fatal("k=0 must give +inf")
	}
	if Threshold([]float64{5}, 1) != 5 {
		t.Fatal("single element")
	}
	if Threshold([]float64{1, 2, 3}, 100) != 1 {
		t.Fatal("k beyond n clamps")
	}
	// Duplicates: threshold with ties.
	if Threshold([]float64{2, 2, 2, 1}, 2) != 2 {
		t.Fatal("tied threshold")
	}
	// Adversarial sorted input exercises the median-of-three pivot.
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i)
	}
	if Threshold(asc, 10) != 990 {
		t.Fatal("sorted ascending")
	}
}

func TestSelectIndexesCount(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x := make([]float64, 1000)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	k := 50
	th := Threshold(x, k)
	idx := AppendSelectByThreshold(nil, x, th)
	// Continuous values: ties have measure zero, expect exactly k.
	if len(idx) != k {
		t.Fatalf("selected %d, want %d", len(idx), k)
	}
	if !sort.SliceIsSorted(idx, func(a, b int) bool { return idx[a] < idx[b] }) {
		t.Fatal("indexes not sorted")
	}
	for _, i := range idx {
		if math.Abs(x[i]) < th {
			t.Fatalf("index %d below threshold", i)
		}
	}
}

func TestCountAboveExcludesZeros(t *testing.T) {
	x := []float64{0, 0, 0.5, -0.5}
	if got := CountAbove(x, 0); got != 2 {
		t.Fatalf("CountAbove=%d want 2", got)
	}
}

func TestGaussianThresholdOnGaussianData(t *testing.T) {
	// On genuinely Gaussian data the estimator should be accurate within
	// a modest factor.
	r := rand.New(rand.NewSource(3))
	n := 200000
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64() * 0.01
	}
	k := n / 100
	th := GaussianThreshold(x, k)
	selected := CountAbove(x, th)
	if selected < k/3 || selected > 3*k {
		t.Fatalf("Gaussian estimate selected %d, want ≈%d", selected, k)
	}
}

func TestGaussianThresholdEdges(t *testing.T) {
	if !math.IsInf(GaussianThreshold(nil, 1), 1) {
		t.Fatal("empty")
	}
	if GaussianThreshold([]float64{1, 2, 3}, 3) != 0 {
		t.Fatal("k=n must select everything (threshold 0)")
	}
}

func TestNormPPF(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.99, 2.326348},
		{0.999, 3.090232},
		{0.025, -1.959964},
		{0.01, -2.326348},
	}
	for _, c := range cases {
		got := normPPF(c.p)
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("ppf(%v)=%v want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(normPPF(0), -1) || !math.IsInf(normPPF(1), 1) {
		t.Error("ppf boundary values")
	}
}

func TestAdjustThreshold(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	th, passes := AdjustThreshold(x, 100, 5)
	if CountAbove(x, th) < 5 {
		t.Fatalf("adjusted threshold %v selects too few", th)
	}
	if passes < 2 {
		t.Fatalf("expected multiple passes, got %d", passes)
	}
	// Already satisfied: single pass, threshold unchanged.
	th2, passes2 := AdjustThreshold(x, 5, 5)
	if th2 != 5 || passes2 != 1 {
		t.Fatalf("no-op adjustment changed threshold: %v passes %d", th2, passes2)
	}
	// Unsatisfiable: converges to zero without hanging.
	th3, _ := AdjustThreshold([]float64{0, 0}, 1, 1)
	if th3 != 0 {
		t.Fatalf("unsatisfiable adjustment should hit 0, got %v", th3)
	}
}

func TestReuseController(t *testing.T) {
	c := NewReuseController(4)
	if !c.ShouldReevaluate(1) {
		t.Fatal("first iteration must evaluate")
	}
	x := []float64{1, 2, 3, 4, 5}
	th := c.ThresholdFor(1, x, 2)
	if th != 4 {
		t.Fatalf("threshold %v want 4", th)
	}
	// Iterations 2..4 reuse even if data changes.
	y := []float64{10, 20, 30, 40, 50}
	for tt := 2; tt <= 4; tt++ {
		if c.ShouldReevaluate(tt) {
			t.Fatalf("iteration %d must reuse", tt)
		}
		if got := c.ThresholdFor(tt, y, 2); got != 4 {
			t.Fatalf("reuse returned %v", got)
		}
	}
	// Iteration 5: (5-1)%4==0 → re-evaluate.
	if got := c.ThresholdFor(5, y, 2); got != 40 {
		t.Fatalf("re-evaluation returned %v", got)
	}
	evals, reuses := c.Stats()
	if evals != 2 || reuses != 3 {
		t.Fatalf("stats evals=%d reuses=%d", evals, reuses)
	}
}

func TestReuseControllerSet(t *testing.T) {
	c := NewReuseController(8)
	c.Set(0.25)
	if !c.Evaluated() || c.Current() != 0.25 {
		t.Fatal("Set must install threshold")
	}
	if c.Period() != 8 {
		t.Fatal("period")
	}
}

func TestReuseControllerInvalidPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReuseController(0)
}

// Property: quickselect equals full sort for arbitrary float inputs.
func TestThresholdProperty(t *testing.T) {
	f := func(vals []float64, kRaw uint8) bool {
		// Filter NaNs; quickselect on NaN is undefined as with sort.
		x := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				x = append(x, v)
			}
		}
		if len(x) == 0 {
			return true
		}
		k := int(kRaw)%len(x) + 1
		return Threshold(x, k) == referenceThreshold(x, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendSelectByThreshold count equals CountAbove for all thresholds.
func TestSelectCountConsistencyProperty(t *testing.T) {
	f := func(vals []float64, th float64) bool {
		if math.IsNaN(th) {
			return true
		}
		return len(AppendSelectByThreshold(nil, vals, math.Abs(th))) == CountAbove(vals, math.Abs(th))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
