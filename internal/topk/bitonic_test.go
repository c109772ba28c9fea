package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Reference selectors: the alternative top-k algorithms the paper
// surveys in §2 when motivating threshold reuse — the bitonic top-k of
// Shanbhag et al. (GPU-friendly, O(n·log²k) comparisons) and a
// sampling-based threshold estimator. Production selects with exact
// quickselect (Threshold); these independent implementations
// cross-check it, and BenchmarkBitonicTopk compares their costs.

// bitonicSortDesc sorts a (power-of-two length) slice descending with a
// bitonic sorting network — the data-independent comparison pattern that
// makes the algorithm GPU-friendly. Comparisons is incremented per
// compare-exchange so cost models can charge the true network size.
func bitonicSortDesc(a []float64, comparisons *int) {
	n := len(a)
	if n&(n-1) != 0 {
		panic("topk: bitonic sort needs power-of-two length")
	}
	for size := 2; size <= n; size *= 2 {
		for stride := size / 2; stride >= 1; stride /= 2 {
			for i := 0; i < n; i++ {
				j := i | stride
				if j == i || j >= n {
					continue
				}
				*comparisons++
				// Direction: descending when the size-block index is even.
				if (i&size == 0) == (a[i] < a[j]) {
					a[i], a[j] = a[j], a[i]
				}
			}
		}
	}
}

// bitonicMergeDesc merges a descending-sorted array of power-of-two
// length into descending order after its halves were made bitonic.
func bitonicMergeDesc(a []float64, comparisons *int) {
	n := len(a)
	for stride := n / 2; stride >= 1; stride /= 2 {
		for i := 0; i < n; i++ {
			j := i | stride
			if j == i || j >= n {
				continue
			}
			*comparisons++
			if a[i] < a[j] {
				a[i], a[j] = a[j], a[i]
			}
		}
	}
}

// BitonicThreshold computes the exact k-th largest |x_i| with the
// chunked bitonic top-k algorithm: maintain a descending buffer of the
// current top-k; for each chunk of k elements, sort it bitonically,
// concatenate with the buffer (forming a bitonic sequence after
// reversal) and bitonic-merge, keeping the top half. Returns the
// threshold and the number of compare-exchanges performed (≈n·log²(2k)).
func BitonicThreshold(x []float64, k int) (float64, int) {
	if len(x) == 0 || k <= 0 {
		return math.Inf(1), 0
	}
	if k > len(x) {
		k = len(x)
	}
	// Round the buffer up to a power of two; pad with -inf.
	bk := 1
	for bk < k {
		bk *= 2
	}
	comparisons := 0
	buf := make([]float64, bk)
	for i := range buf {
		buf[i] = math.Inf(-1)
	}
	chunk := make([]float64, bk)
	merged := make([]float64, 2*bk)
	for off := 0; off < len(x); off += bk {
		for i := 0; i < bk; i++ {
			if off+i < len(x) {
				chunk[i] = math.Abs(x[off+i])
			} else {
				chunk[i] = math.Inf(-1)
			}
		}
		bitonicSortDesc(chunk, &comparisons)
		// buf is descending, chunk is descending; reversing chunk makes
		// [buf, reverse(chunk)] bitonic, so one merge suffices.
		copy(merged[:bk], buf)
		for i := 0; i < bk; i++ {
			merged[bk+i] = chunk[bk-1-i]
		}
		bitonicMergeDesc(merged, &comparisons)
		copy(buf, merged[:bk])
	}
	return buf[k-1], comparisons
}

// SampledThreshold estimates the top-k threshold from a uniform random
// sample: it computes the exact threshold of the sample at the scaled
// rank k·(sample/n). Cheap (O(sample) work) but biased by sampling
// noise, which the repository's benches quantify against the exact and
// Gaussian estimators.
func SampledThreshold(r *rand.Rand, x []float64, k, sampleSize int) float64 {
	n := len(x)
	if n == 0 || k <= 0 {
		return math.Inf(1)
	}
	if sampleSize >= n {
		return Threshold(x, k)
	}
	if sampleSize < 1 {
		sampleSize = 1
	}
	sample := make([]float64, sampleSize)
	for i := range sample {
		sample[i] = x[r.Intn(n)]
	}
	ks := int(math.Round(float64(k) * float64(sampleSize) / float64(n)))
	if ks < 1 {
		ks = 1
	}
	return Threshold(sample, ks)
}

func TestBitonicSortDesc(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		a := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64()
		}
		want := append([]float64(nil), a...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		comparisons := 0
		bitonicSortDesc(a, &comparisons)
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("n=%d: position %d got %v want %v", n, i, a[i], want[i])
			}
		}
		if n > 1 && comparisons == 0 {
			t.Fatal("comparisons not counted")
		}
	}
}

func TestBitonicSortNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := 0
	bitonicSortDesc(make([]float64, 3), &c)
}

func TestBitonicThresholdMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(2000)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		k := 1 + r.Intn(n)
		got, _ := BitonicThreshold(x, k)
		want := Threshold(x, k)
		if got != want {
			t.Fatalf("trial %d (n=%d k=%d): bitonic %v exact %v", trial, n, k, got, want)
		}
	}
}

func TestBitonicThresholdEdges(t *testing.T) {
	if th, _ := BitonicThreshold(nil, 3); !math.IsInf(th, 1) {
		t.Fatal("empty input")
	}
	if th, _ := BitonicThreshold([]float64{-5}, 1); th != 5 {
		t.Fatalf("single element: %v", th)
	}
	if th, _ := BitonicThreshold([]float64{1, 2}, 10); th != 1 {
		t.Fatal("k clamped")
	}
}

func TestBitonicComparisonsScale(t *testing.T) {
	// The comparison count grows ≈ n·log²(2k): quadrupling k from a
	// power of two should grow comparisons clearly sub-linearly in k.
	r := rand.New(rand.NewSource(3))
	n := 1 << 14
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	_, c64 := BitonicThreshold(x, 64)
	_, c256 := BitonicThreshold(x, 256)
	if c256 <= c64 {
		t.Fatalf("comparisons must grow with k: %d vs %d", c64, c256)
	}
	if float64(c256) > 2.5*float64(c64) {
		t.Fatalf("comparisons grew too fast with k (%d -> %d); expected polylog growth", c64, c256)
	}
}

func TestSampledThresholdApproximates(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	n, k := 200000, 2000
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	exact := Threshold(x, k)
	est := SampledThreshold(r, x, k, 20000)
	selected := CountAbove(x, est)
	if math.Abs(est-exact)/exact > 0.15 {
		t.Fatalf("sampled threshold %v far from exact %v", est, exact)
	}
	if selected < k/2 || selected > 2*k {
		t.Fatalf("sampled threshold selects %d, want ≈%d", selected, k)
	}
}

func TestSampledThresholdEdges(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	if !math.IsInf(SampledThreshold(r, nil, 3, 10), 1) {
		t.Fatal("empty")
	}
	x := []float64{3, 1, 2}
	// Sample covering the full array degrades to the exact path.
	if got := SampledThreshold(r, x, 2, 10); got != 2 {
		t.Fatalf("full-sample fallback got %v", got)
	}
}

// Property: bitonic equals exact for arbitrary finite inputs.
func TestBitonicProperty(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		x := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				x = append(x, v)
			}
		}
		if len(x) == 0 {
			return true
		}
		k := int(kRaw)%len(x) + 1
		got, _ := BitonicThreshold(x, k)
		return got == Threshold(x, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBitonicTopk compares the GPU-friendly bitonic selection
// against quickselect (the §2 trade-off behind threshold reuse).
func BenchmarkBitonicTopk(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	x := make([]float64, 1<<18)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	b.Run("bitonic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BitonicThreshold(x, 1024)
		}
	})
	b.Run("quickselect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Threshold(x, 1024)
		}
	})
	b.Run("sampled", func(b *testing.B) {
		rr := rand.New(rand.NewSource(14))
		for i := 0; i < b.N; i++ {
			SampledThreshold(rr, x, 1024, 1<<14)
		}
	})
}
