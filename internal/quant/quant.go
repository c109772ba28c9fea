// Package quant implements gradient quantization, the orthogonal
// communication-reduction technique the paper discusses alongside
// sparsification (§2; SparCML studies the combination). It provides a
// QSGD-style stochastic uniform quantizer for the *values* of a sparse
// gradient: indexes stay exact (they address coordinates), values are
// compressed to b bits plus one shared scale per chunk.
//
// Combined with Ok-Topk, quantized values shrink the 6k(P−1)/P volume's
// value half by 64/b; internal/core_test and the ablation benches
// measure the effect. This is an extension beyond the paper's evaluated
// system, marked as such in DESIGN.md.
package quant

import (
	"fmt"
	"math"
	"math/rand"
)

// Quantized is a block of values compressed to Bits bits each under a
// shared max-magnitude scale.
type Quantized struct {
	Bits   int
	Scale  float64
	Levels []int8 // signed level per value, in [-(2^(Bits-1)-1), +...]
}

// Words returns the wire size in 8-byte words under the paper's
// accounting: packed levels plus one word for the scale.
func (q *Quantized) Words() int {
	if len(q.Levels) == 0 {
		return 0
	}
	bits := len(q.Levels) * q.Bits
	return (bits+63)/64 + 1
}

// Quantize compresses values with stochastic rounding: each value maps
// to one of 2^(bits-1)−1 positive levels of the scale, rounding up with
// probability proportional to the remainder, which keeps the quantizer
// unbiased (E[Dequantize(Quantize(x))] = x). bits must be in [2, 8].
func Quantize(r *rand.Rand, values []float64, bits int) *Quantized {
	if bits < 2 || bits > 8 {
		panic(fmt.Sprintf("quant: bits %d out of [2,8]", bits))
	}
	q := &Quantized{Bits: bits}
	var scale float64
	for _, v := range values {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	q.Scale = scale
	q.Levels = make([]int8, len(values))
	if scale == 0 {
		return q
	}
	maxLevel := float64(int(1)<<(bits-1) - 1)
	for i, v := range values {
		x := v / scale * maxLevel // in [-maxLevel, maxLevel]
		lo := math.Floor(math.Abs(x))
		frac := math.Abs(x) - lo
		level := lo
		if r.Float64() < frac {
			level++
		}
		if v < 0 {
			level = -level
		}
		q.Levels[i] = int8(level)
	}
	return q
}

// Dequantize reconstructs the (approximate) values.
func (q *Quantized) Dequantize() []float64 {
	out := make([]float64, len(q.Levels))
	if q.Scale == 0 {
		return out
	}
	maxLevel := float64(int(1)<<(q.Bits-1) - 1)
	for i, l := range q.Levels {
		out[i] = float64(l) / maxLevel * q.Scale
	}
	return out
}
