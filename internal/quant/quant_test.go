package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripBounded(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	values := make([]float64, 1000)
	for i := range values {
		values[i] = r.NormFloat64()
	}
	for _, bits := range []int{2, 4, 8} {
		q := Quantize(r, values, bits)
		got := q.Dequantize()
		maxLevel := float64(int(1)<<(bits-1) - 1)
		step := q.Scale / maxLevel
		for i := range values {
			if math.Abs(got[i]-values[i]) > step+1e-12 {
				t.Fatalf("bits=%d: value %v reconstructed as %v (step %v)",
					bits, values[i], got[i], step)
			}
		}
	}
}

func TestUnbiasedness(t *testing.T) {
	// Stochastic rounding: the mean reconstruction over many trials
	// approaches the true value.
	r := rand.New(rand.NewSource(2))
	value := []float64{0.3217}
	var sum float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		sum += Quantize(r, value, 4).Dequantize()[0]
	}
	mean := sum / trials
	if math.Abs(mean-value[0]) > 0.003 {
		t.Fatalf("quantizer biased: mean %v want %v", mean, value[0])
	}
}

func TestWordsAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	values := make([]float64, 128)
	for i := range values {
		values[i] = r.NormFloat64()
	}
	q := Quantize(r, values, 4)
	// 128 values × 4 bits = 512 bits = 8 words, +1 scale.
	if q.Words() != 9 {
		t.Fatalf("words=%d want 9", q.Words())
	}
	if (&Quantized{Bits: 4}).Words() != 0 {
		t.Fatal("empty block must be free")
	}
}

func TestZeroAndExtremes(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	q := Quantize(r, []float64{0, 0, 0}, 4)
	for _, v := range q.Dequantize() {
		if v != 0 {
			t.Fatal("zeros must reconstruct exactly")
		}
	}
	// The max-magnitude value always reconstructs exactly.
	q2 := Quantize(r, []float64{-2.5, 1.0}, 4)
	if got := q2.Dequantize()[0]; got != -2.5 {
		t.Fatalf("max magnitude reconstructed as %v", got)
	}
}

func TestBadBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantize(rand.New(rand.NewSource(1)), []float64{1}, 9)
}

// Property: reconstruction error is bounded by one quantization step for
// arbitrary finite inputs.
func TestErrorBoundProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func(raw []float64, bitsRaw uint8) bool {
		values := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				values = append(values, v)
			}
		}
		bits := int(bitsRaw)%7 + 2
		q := Quantize(r, values, bits)
		got := q.Dequantize()
		maxLevel := float64(int(1)<<(bits-1) - 1)
		step := q.Scale / maxLevel
		for i := range values {
			if math.Abs(got[i]-values[i]) > step*(1+1e-9)+1e-300 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
