package data

import (
	"testing"

	"repro/internal/tensor"
)

func TestImagesDeterministicAndLabeled(t *testing.T) {
	d1 := NewImages(7, 10)
	d2 := NewImages(7, 10)
	r1, r2 := tensor.RNG(1), tensor.RNG(1)
	x1, y1 := d1.Batch(r1, 8)
	x2, y2 := d2.Batch(r2, 8)
	for i := range x1.Data {
		if x1.Data[i] != x2.Data[i] {
			t.Fatal("images not deterministic")
		}
	}
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("labels not deterministic")
		}
		if y1[i] < 0 || y1[i] >= 10 {
			t.Fatalf("label %d out of range", y1[i])
		}
	}
	if x1.Rows != 8 || x1.Cols != 3*32*32 {
		t.Fatalf("batch shape %dx%d", x1.Rows, x1.Cols)
	}
}

func TestImagesClassesDiffer(t *testing.T) {
	// Mean images of two classes must differ far more than noise would
	// explain — otherwise the task is unlearnable.
	d := NewImages(3, 10)
	r := tensor.RNG(2)
	sums := make([][]float64, 10)
	counts := make([]int, 10)
	for b := 0; b < 100; b++ {
		x, y := d.Batch(r, 16)
		for i, cl := range y {
			if sums[cl] == nil {
				sums[cl] = make([]float64, x.Cols)
			}
			tensor.Axpy(1, x.Row(i), sums[cl])
			counts[cl]++
		}
	}
	// Compare the first two classes with enough samples.
	a, b := -1, -1
	for cl, c := range counts {
		if c > 50 {
			if a == -1 {
				a = cl
			} else if b == -1 {
				b = cl
			}
		}
	}
	if a == -1 || b == -1 {
		t.Skip("not enough samples per class")
	}
	for _, cl := range []int{a, b} {
		inv := 1 / float64(counts[cl])
		for i := range sums[cl] {
			sums[cl][i] *= inv
		}
	}
	var dist float64
	for i := range sums[a] {
		dlt := sums[a][i] - sums[b][i]
		dist += dlt * dlt
	}
	if dist < 1 {
		t.Fatalf("class means too close: %v", dist)
	}
}

func TestSequencesShape(t *testing.T) {
	d := NewSequences(11, 12, 20, 40)
	r := tensor.RNG(3)
	seq, y := d.Batch(r, 6)
	if len(seq) != 20 {
		t.Fatalf("seq len %d", len(seq))
	}
	for _, frame := range seq {
		if frame.Rows != 6 || frame.Cols != 40 {
			t.Fatalf("frame shape %dx%d", frame.Rows, frame.Cols)
		}
	}
	for _, cl := range y {
		if cl < 0 || cl >= 12 {
			t.Fatalf("label %d", cl)
		}
	}
}

func TestCorpusMasking(t *testing.T) {
	c := NewCorpus(13, 1000, 32)
	r := tensor.RNG(4)
	ids, pos, tgt := c.Batch(r, 16)
	if len(ids) != 16 || len(pos) != 16 || len(tgt) != 16 {
		t.Fatal("batch sizes")
	}
	for b := range ids {
		if len(ids[b]) != 32 {
			t.Fatalf("seq %d len %d", b, len(ids[b]))
		}
		if len(pos[b]) == 0 {
			t.Fatalf("seq %d has no masked positions", b)
		}
		if len(pos[b]) != len(tgt[b]) {
			t.Fatal("pos/target mismatch")
		}
		for i, p := range pos[b] {
			if ids[b][p] != MaskToken {
				t.Fatalf("masked position %d not MASK", p)
			}
			if tgt[b][i] == MaskToken || tgt[b][i] < 0 || tgt[b][i] >= 1000 {
				t.Fatalf("bad target %d", tgt[b][i])
			}
		}
		// Unmasked tokens must be in vocabulary and never MASK.
		masked := map[int]bool{}
		for _, p := range pos[b] {
			masked[p] = true
		}
		for t2, id := range ids[b] {
			if !masked[t2] && (id <= 0 || id >= 1000) {
				t.Fatalf("token %d out of range", id)
			}
		}
	}
}

func TestCorpusZipfSkew(t *testing.T) {
	// Frequent tokens must dominate: token ids ≤ 100 should account for
	// well over their uniform share of a large sample.
	c := NewCorpus(17, 1000, 32)
	r := tensor.RNG(5)
	low, total := 0, 0
	for b := 0; b < 50; b++ {
		ids, _, _ := c.Batch(r, 8)
		for _, seq := range ids {
			for _, id := range seq {
				if id == MaskToken {
					continue
				}
				total++
				if id <= 100 {
					low++
				}
			}
		}
	}
	if frac := float64(low) / float64(total); frac < 0.3 {
		t.Fatalf("top-100 tokens hold only %.2f of mass; Zipf skew missing", frac)
	}
}

func TestCorpusBigramStructure(t *testing.T) {
	// Masked tokens must be predictable: the successor sets are small,
	// so P(next|prev) is concentrated. Verify transitions mostly land in
	// the recorded successor sets.
	c := NewCorpus(19, 500, 16)
	r := tensor.RNG(6)
	hits, total := 0, 0
	for b := 0; b < 200; b++ {
		ids, _, _ := c.Batch(r, 4)
		for _, seq := range ids {
			for t2 := 1; t2 < len(seq); t2++ {
				if seq[t2] == MaskToken || seq[t2-1] == MaskToken {
					continue
				}
				total++
				for _, s := range c.next[seq[t2-1]] {
					if s == seq[t2] {
						hits++
						break
					}
				}
			}
		}
	}
	if frac := float64(hits) / float64(total); frac < 0.5 {
		t.Fatalf("only %.2f of transitions follow bigram structure", frac)
	}
}
