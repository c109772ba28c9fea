package train

import (
	"math/rand"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/nn"
	"repro/internal/optimizer"
	"repro/internal/tensor"
)

// BackwardFraction is the share of a workload's modeled compute+I/O
// time spent in the backward pass (backward ≈ 2× forward for the
// conv/recurrent/transformer stacks modeled here). It bounds what the
// overlap engine can hide: communication only overlaps the backward
// window that produces later buckets, never the forward pass or I/O.
const BackwardFraction = 2.0 / 3.0

// Trainer is one rank's training state: workload replica, reduction
// algorithm instance, optimizer and residual (error-feedback) vector. It
// implements Ok-Topk SGD (Algorithm 2) generalized over any
// allreduce.Algorithm: dense algorithms simply have empty residuals.
type Trainer struct {
	W    Workload
	Algo allreduce.Algorithm
	Opt  optimizer.Optimizer
	// RawGrad selects the paper's BERT structure: the sparse allreduce
	// runs on raw gradients and the stateful optimizer (Adam) consumes
	// the averaged sparse gradient. When false (VGG/LSTM), the learning
	// rate is folded into the accumulator and the averaged update is
	// subtracted directly (Algorithm 2 line 7).
	RawGrad bool
	// Batch is the per-worker batch size.
	Batch int
	// LR is the current learning rate (schedules update it per step).
	LR float64

	residual []float64
	acc      []float64
	plan     *overlapPlan

	// CaptureAcc makes Step retain copies of the accumulator (αG_i+ε_i),
	// the scaled gradient (αG_i) and the reduction output for the ξ
	// experiments (Figure 5); the harness combines them across ranks.
	CaptureAcc     bool
	LastAcc        []float64
	LastScaledGrad []float64
	LastUpdate     []float64
}

// StepStats reports one training iteration of one rank.
type StepStats struct {
	Loss    float64
	Correct int
	Total   int
	LocalK  int
	GlobalK int
	// Phase times in modeled seconds for this iteration: [compute,
	// sparsify, comm]. For overlap-simulated algorithms the comm entry
	// is the exposed remainder the bucket pipeline failed to hide.
	Phase [3]float64
	// IterSeconds is this rank's modeled wall time for the iteration.
	IterSeconds float64
}

// NewTrainer builds a per-rank trainer.
func NewTrainer(w Workload, algo allreduce.Algorithm, opt optimizer.Optimizer, batch int, rawGrad bool) *Trainer {
	return &Trainer{
		W: w, Algo: algo, Opt: opt, Batch: batch, RawGrad: rawGrad,
		LR:       opt.LR(),
		residual: make([]float64, w.N()),
		acc:      make([]float64, w.N()),
	}
}

// overlapPlan is the precomputed mapping from a workload's backward
// schedule onto an Overlapped algorithm's buckets: for each schedule
// entry, its share of the backward window and the buckets whose last
// contributing layer it is. Static per (workload, algorithm) pair, so
// the steady-state step allocates nothing.
type overlapPlan struct {
	entries []overlapEntry
}

type overlapEntry struct {
	frac    float64 // share of the backward window
	buckets []int   // buckets to issue once this entry's backward completes
}

// buildOverlapPlan walks the schedule in backward order, retiring each
// layer's parameter block from the buckets it intersects. Buckets are
// issued in descending index order — backward produces the tail of the
// flat vector first — and, like DDP, strictly in order: a bucket whose
// neighbors toward the tail are still incomplete waits for them, which
// keeps the collective issue order identical on every rank.
func buildOverlapPlan(sched []nn.LayerCost, n int, ov allreduce.Overlapped) *overlapPlan {
	nb := ov.Buckets(n)
	var total float64
	for _, lc := range sched {
		total += lc.Flops
	}
	p := &overlapPlan{}
	if len(sched) == 0 || total <= 0 {
		// Degenerate schedule: charge the whole backward window, then
		// issue everything (no overlap emerges, communication is fully
		// exposed — the safe fallback).
		all := make([]int, 0, nb)
		for b := nb - 1; b >= 0; b-- {
			all = append(all, b)
		}
		p.entries = []overlapEntry{{frac: 1, buckets: all}}
		return p
	}
	rem := make([]int, nb)
	for b := range rem {
		lo, hi := ov.BucketBounds(n, b)
		rem[b] = hi - lo
	}
	next := nb - 1
	for _, lc := range sched {
		e := overlapEntry{frac: lc.Flops / total}
		for b := 0; b < nb; b++ {
			lo, hi := ov.BucketBounds(n, b)
			if o := intersectLen(lo, hi, lc.Off, lc.Off+lc.Len); o > 0 {
				rem[b] -= o
			}
		}
		for next >= 0 && rem[next] <= 0 {
			e.buckets = append(e.buckets, next)
			next--
		}
		p.entries = append(p.entries, e)
	}
	// Schedules tile [0, n), so the walk retires every bucket; a schedule
	// that under-covers drains its stragglers with the final entry.
	for next >= 0 {
		last := &p.entries[len(p.entries)-1]
		last.buckets = append(last.buckets, next)
		next--
	}
	return p
}

func intersectLen(alo, ahi, blo, bhi int) int {
	lo, hi := alo, ahi
	if blo > lo {
		lo = blo
	}
	if bhi < hi {
		hi = bhi
	}
	return hi - lo
}

// drivePipeline runs the simulated bucket pipeline: inside a netmodel
// overlap window, it burns the backward schedule on the compute track
// and issues each bucket's reduction on the comm track the moment its
// plan entry completes. The window close attributes the backward window
// to PhaseCompute and only the exposed communication to PhaseComm.
func (tr *Trainer) drivePipeline(cm *cluster.Comm, ov allreduce.Overlapped, backward float64, t int) allreduce.Result {
	if tr.plan == nil {
		tr.plan = buildOverlapPlan(tr.W.BackwardSchedule(), tr.W.N(), ov)
	}
	clk := cm.Clock()
	clk.BeginOverlap()
	for _, e := range tr.plan.entries {
		clk.OverlapSleep(backward * e.frac)
		for _, b := range e.buckets {
			clk.OverlapReady()
			ov.IssueBucket(cm, tr.acc, b)
		}
	}
	clk.EndOverlap()
	return ov.DrainOverlap(cm, tr.acc, t)
}

// Step runs iteration t (1-based) collectively with all other ranks.
func (tr *Trainer) Step(cm *cluster.Comm, t int, rng *rand.Rand) StepStats {
	clk := cm.Clock()
	// Key the topology's jitter draws to this iteration (a plain store
	// with no effect on the flat network).
	clk.SetStep(t)
	before := clk.Snapshot()

	// Forward + backward (real gradient) plus the modeled compute+I/O
	// charge of the paper-scale model.
	clk.SetPhase(netmodel.PhaseCompute)
	tr.W.ZeroGrads()
	loss, correct, total := tr.W.ComputeBatch(rng, tr.Batch)

	comp := tr.W.ComputeSeconds(tr.Batch)
	grads := tr.W.Grads()
	scale := tr.LR
	if tr.RawGrad {
		scale = 1
	}
	var res allreduce.Result
	if ov, ok := tr.Algo.(allreduce.Overlapped); ok {
		// Forward + I/O are charged up front; the backward window runs
		// inside the overlap engine, concurrent with the bucket pipeline.
		backward := comp * BackwardFraction
		clk.Sleep(comp - backward)
		// Algorithm 2 line 4: accumulate residuals (fused acc = ε + α·G).
		tensor.ScaleAdd(tr.acc, scale, grads, tr.residual)
		// Line 5, pipelined: bucket-by-bucket reduction against the
		// backward schedule.
		res = tr.drivePipeline(cm, ov, backward, t)
	} else {
		clk.Sleep(comp)
		tensor.ScaleAdd(tr.acc, scale, grads, tr.residual)
		// Line 5: the collective reduction.
		res = tr.Algo.Reduce(cm, tr.acc, t)
	}
	clk.SetPhase(netmodel.PhaseCompute)

	if tr.CaptureAcc {
		// Capture before the update vector is scaled in place below.
		tr.LastAcc = append(tr.LastAcc[:0], tr.acc...)
		tr.LastUpdate = append(tr.LastUpdate[:0], res.Update...)
		tr.LastScaledGrad = tr.LastScaledGrad[:0]
		for _, g := range grads {
			tr.LastScaledGrad = append(tr.LastScaledGrad, scale*g)
		}
	}

	// Line 6: update residuals — zero exactly the contributed entries.
	if res.All {
		for i := range tr.residual {
			tr.residual[i] = 0
		}
	} else {
		copy(tr.residual, tr.acc)
		for _, idx := range res.Contributed {
			tr.residual[idx] = 0
		}
	}

	// Line 7: apply the model update.
	p := float64(cm.Size())
	params := tr.W.Params()
	if tr.RawGrad {
		avg := res.Update
		inv := 1 / p
		for i := range avg {
			avg[i] *= inv
		}
		tr.Opt.Apply(params, avg)
	} else {
		inv := 1 / p
		for i, v := range res.Update {
			if v != 0 {
				params[i] -= v * inv
			}
		}
	}

	after := clk.Snapshot()
	st := StepStats{
		Loss: loss, Correct: correct, Total: total,
		LocalK: res.LocalK, GlobalK: res.GlobalK,
	}
	for i := 0; i < 3; i++ {
		st.Phase[i] = after.PhaseTime[i] - before.PhaseTime[i]
	}
	st.IterSeconds = st.Phase[0] + st.Phase[1] + st.Phase[2]
	return st
}
