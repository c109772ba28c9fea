package collectives

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/tensor"
)

// TestHierarchicalAllreduce checks the two-level schedule against the
// flat sum on the P × nodeSize grid, including non-divisor node sizes
// (ragged last node) and degenerate single-node / single-rank-node
// layouts.
func TestHierarchicalAllreduce(t *testing.T) {
	for _, tc := range []struct{ p, nodeSize int }{
		{4, 2}, {4, 4}, {4, 3}, {4, 1}, {4, 5},
		{8, 2}, {8, 4}, {8, 3}, {8, 5}, {6, 6},
		{12, 3}, {16, 2}, {16, 4}, {16, 5}, {16, 6},
	} {
		n := 57
		want := expectedSum(tc.p, n)
		runCluster(t, tc.p, func(cm *cluster.Comm) error {
			x := rankVector(cm.Rank(), n)
			HierarchicalAllreduce(cm, x, tc.nodeSize)
			for i := range x {
				if !almostEqual(x[i], want[i]) {
					t.Errorf("P=%d node=%d rank %d: x[%d]=%v want %v",
						tc.p, tc.nodeSize, cm.Rank(), i, x[i], want[i])
					return nil
				}
			}
			return nil
		})
	}
}

// TestHierarchicalMatchesFlat: on identical inputs the hierarchical
// schedule and the flat Allreduce must agree to within reduction-order
// rounding at every P × nodeSize combination the topo runner sweeps.
func TestHierarchicalMatchesFlat(t *testing.T) {
	for _, p := range []int{4, 8, 16} {
		for _, nodeSize := range []int{2, 4, 3} {
			n := 129
			flat := make([][]float64, p)
			runCluster(t, p, func(cm *cluster.Comm) error {
				x := rankVector(cm.Rank(), n)
				Allreduce(cm, x)
				flat[cm.Rank()] = x
				return nil
			})
			runCluster(t, p, func(cm *cluster.Comm) error {
				x := rankVector(cm.Rank(), n)
				HierarchicalAllreduce(cm, x, nodeSize)
				for i := range x {
					if !almostEqual(x[i], flat[cm.Rank()][i]) {
						t.Errorf("P=%d node=%d rank %d: hier[%d]=%v flat=%v",
							p, nodeSize, cm.Rank(), i, x[i], flat[cm.Rank()][i])
						return nil
					}
				}
				return nil
			})
		}
	}
}

func TestHierarchicalBadNodeSizePanics(t *testing.T) {
	for _, bad := range []int{0, -2} {
		func() {
			c := cluster.New(4, testParams())
			defer func() {
				if recover() == nil {
					t.Fatalf("nodeSize=%d: expected panic", bad)
				}
			}()
			_ = c.Run(func(cm *cluster.Comm) error {
				HierarchicalAllreduce(cm, make([]float64, 4), bad)
				return nil
			})
		}()
	}
}

// TestHierarchicalNoAliasing: each rank's result buffer must be
// private — the broadcast fold must copy pooled hop buffers, never
// retain them. Mutating one rank's output must not disturb another's
// (run under -race in CI, which additionally catches unsynchronized
// sharing of the pooled payloads).
func TestHierarchicalNoAliasing(t *testing.T) {
	p, n := 8, 65
	outs := make([][]float64, p)
	runCluster(t, p, func(cm *cluster.Comm) error {
		x := rankVector(cm.Rank(), n)
		HierarchicalAllreduce(cm, x, 3)
		outs[cm.Rank()] = x
		return nil
	})
	want := expectedSum(p, n)
	for i := range outs[0] {
		outs[0][i] = -1e9
	}
	for r := 1; r < p; r++ {
		for i, v := range outs[r] {
			if !almostEqual(v, want[i]) {
				t.Fatalf("rank %d output disturbed by rank 0 mutation at %d: %v", r, i, v)
			}
		}
	}
}

// TestHierarchicalAllocBudget: the pooled-payload contract holds for
// the two-level schedule too. Group construction allocates (rank
// slices, group headers) but payload hops must stay pooled, so the
// per-iteration ceiling is a small constant — far below one fresh
// buffer per hop (which would be ≥ P·n words).
func TestHierarchicalAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is noisy under -short race mixes")
	}
	p, n := 16, 4096
	c := cluster.New(p, testParams())
	xs := make([][]float64, p)
	for r := range xs {
		xs[r] = rankVector(r, n)
	}
	step := func() {
		if err := c.Run(func(cm *cluster.Comm) error {
			copy(xs[cm.Rank()], rankVector(cm.Rank(), n))
			HierarchicalAllreduce(cm, xs[cm.Rank()], 4)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step() // warm the rank pools
	}
	got := testing.AllocsPerRun(5, step)
	t.Logf("hierarchical allreduce allocs per cluster-wide call (P=%d): %.0f", p, got)
	// Measured steady state ≈ P·(goroutine spawn + 2 groups + 2 rank
	// slices + rankVector scratch) ≈ 160; budget 2× above that and far
	// below the ≥ P·n-word cost of unpooled payload hops.
	if got > 400 {
		t.Fatalf("hierarchical allreduce allocates %.0f per call, budget 400", got)
	}
}

// TestHierarchicalReducesInterNodeTraffic: with node-local groups the
// total traffic is below the flat allreduce's when nodeSize > 1 (the
// leaders exchange once per node; in a real machine the intra-node hops
// would additionally be cheaper).
func TestHierarchicalTrafficShape(t *testing.T) {
	n := 4096
	traffic := func(nodeSize int) float64 {
		c := cluster.New(8, testParams())
		if err := c.Run(func(cm *cluster.Comm) error {
			x := rankVector(cm.Rank(), n)
			HierarchicalAllreduce(cm, x, nodeSize)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, s := range c.Stats() {
			sum += float64(s.SentWords)
		}
		return sum
	}
	flat := traffic(1)
	two := traffic(4)
	if two >= 1.3*flat {
		t.Errorf("hierarchical traffic %v should not blow up vs flat %v", two, flat)
	}
}

// Alltoall performs a personalized exchange: sendBlocks[r] goes to rank
// r; the returned slice holds what every rank sent to the caller
// (indexed by source). Blocks may have different sizes (an MPI
// Alltoallv). The schedule is the rotated pattern Ok-Topk's split phase
// uses, avoiding endpoint congestion. Received blocks (every entry but
// the caller's own) are pooled hop buffers the caller owns and may
// release with cm.PutFloats once consumed.
func Alltoall(cm cluster.Endpoint, sendBlocks [][]float64) [][]float64 {
	p, rank := cm.Size(), cm.Rank()
	if len(sendBlocks) != p {
		panic("collectives: alltoall needs one block per rank")
	}
	const tagA2A = 16 << 20
	out := make([][]float64, p)
	out[rank] = sendBlocks[rank]
	for s := 1; s < p; s++ {
		dst := (rank + s) % p
		src := (rank - s + p) % p
		sendWire(cm, dst, tagA2A+s, sendBlocks[dst])
		out[src] = recvWireFloats(cm, src, tagA2A+s)
	}
	return out
}

func TestAlltoall(t *testing.T) {
	for _, p := range []int{2, 4, 7} {
		runCluster(t, p, func(cm *cluster.Comm) error {
			// Rank r sends to rank d a block of d+1 values tagged with
			// the pair identity.
			blocks := make([][]float64, p)
			for d := 0; d < p; d++ {
				blk := make([]float64, d+1)
				for i := range blk {
					blk[i] = float64(cm.Rank()*100 + d)
				}
				blocks[d] = blk
			}
			got := Alltoall(cm, blocks)
			for src := 0; src < p; src++ {
				if len(got[src]) != cm.Rank()+1 {
					t.Errorf("P=%d rank %d: block from %d has %d values",
						p, cm.Rank(), src, len(got[src]))
					return nil
				}
				want := float64(src*100 + cm.Rank())
				for _, v := range got[src] {
					if v != want {
						t.Errorf("P=%d rank %d: from %d got %v want %v", p, cm.Rank(), src, v, want)
						return nil
					}
				}
			}
			return nil
		})
	}
}

// ReduceScatterV reduces x across ranks and leaves rank r with the fully
// reduced slice [cuts[r], cuts[r+1]) (variable-size blocks). cuts must
// have length P+1 with cuts[0]=0 and cuts[P]=len(x). Built on the
// rotated alltoall.
func ReduceScatterV(cm cluster.Endpoint, x []float64, cuts []int) []float64 {
	p, rank := cm.Size(), cm.Rank()
	if len(cuts) != p+1 || cuts[0] != 0 || cuts[p] != len(x) {
		panic("collectives: bad cuts")
	}
	blocks := make([][]float64, p)
	for r := 0; r < p; r++ {
		blocks[r] = x[cuts[r]:cuts[r+1]]
	}
	got := Alltoall(cm, blocks)
	mine := tensor.Copy(x[cuts[rank]:cuts[rank+1]])
	for r, blk := range got {
		if r == rank {
			continue
		}
		cm.Clock().Compute(float64(len(blk)))
		tensor.Axpy(1, blk, mine)
		cm.PutFloats(blk)
	}
	return mine
}

func TestReduceScatterV(t *testing.T) {
	p, n := 4, 50
	cuts := []int{0, 5, 20, 35, 50} // deliberately uneven
	want := expectedSum(p, n)
	runCluster(t, p, func(cm *cluster.Comm) error {
		x := rankVector(cm.Rank(), n)
		mine := ReduceScatterV(cm, x, cuts)
		lo, hi := cuts[cm.Rank()], cuts[cm.Rank()+1]
		if len(mine) != hi-lo {
			t.Errorf("rank %d: got %d values want %d", cm.Rank(), len(mine), hi-lo)
			return nil
		}
		for i := range mine {
			if math.Abs(mine[i]-want[lo+i]) > 1e-9 {
				t.Errorf("rank %d: elem %d = %v want %v", cm.Rank(), i, mine[i], want[lo+i])
				return nil
			}
		}
		return nil
	})
}

func TestReduceScatterVBadCutsPanics(t *testing.T) {
	c := cluster.New(2, testParams())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = c.Run(func(cm *cluster.Comm) error {
		ReduceScatterV(cm, make([]float64, 10), []int{0, 10})
		return nil
	})
}
