package experiments

import (
	"fmt"
	"io"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/tensor"
	"repro/internal/train"
)

// LoadBalanceResult is one Figure-7 bar group: speedups of the balanced
// strategies over their naive counterparts at one cluster size.
type LoadBalanceResult struct {
	P                int
	ReduceSpeedup    float64 // Fig 7a: balanced vs naive (equal-region) reduce
	AllgatherSpeedup float64 // Fig 7b: balance+allgatherv vs direct allgatherv
}

// BandGradients builds gradients whose heavy values all live in the
// coordinate band [bandLo, bandHi) — the "one layer spikes" pattern that
// concentrates the global top-k in a few region owners whenever the
// region boundaries are stale.
func BandGradients(seed int64, p, n, heavy, bandLo, bandHi int) [][]float64 {
	grads := make([][]float64, p)
	for r := 0; r < p; r++ {
		rng := tensor.RNG(seed + int64(r) + 7)
		g := make([]float64, n)
		for i := range g {
			g[i] = rng.NormFloat64() * 0.001
		}
		for h := 0; h < heavy; h++ {
			v := rng.Float64()*0.2 + 0.9
			if rng.Intn(2) == 0 {
				v = -v
			}
			g[bandLo+rng.Intn(bandHi-bandLo)] = v
		}
		grads[r] = g
	}
	return grads
}

// figure7Makespan runs Ok-Topk over a schedule of per-iteration gradient
// sets with the given ablation flags and returns the makespan of the
// final iteration.
func figure7Makespan(env Env, schedule [][][]float64, k, tau int, repartition, balance bool) float64 {
	p := len(schedule[0])
	cfg := allreduce.Config{
		K: k, TauPrime: 2, Tau: tau,
		Rotation: true, Repartition: repartition, DataBalance: balance,
	}
	algos := make([]*core.OkTopk, p)
	for i := range algos {
		algos[i] = core.New(cfg)
	}
	c := env.cluster(p)
	for it := 1; it <= len(schedule); it++ {
		if it == len(schedule) {
			c.ResetClocks()
		}
		grads := schedule[it-1]
		if err := c.Run(func(cm *cluster.Comm) error {
			algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
			return nil
		}); err != nil {
			panic(err)
		}
	}
	return netmodel.AggregateStats(c.Stats()).Makespan
}

// Figure7 measures the two load-balancing optimizations at each cluster
// size.
//
// Panel (a): coordinate-skewed gradients (local top-k concentrated, as
// in embedding layers) compare balanced repartition against equal-size
// regions.
//
// Panel (b): the gradient distribution shifts into a narrow band after
// the boundaries were computed (the staleness window of period τ), so
// the global top-k values concentrate in a few region owners; the
// conditional data-balancing step (§3.1.2) triggers and spreads the
// allgatherv input. The paper likewise reports panel (b) "for the
// iterations where data balancing is triggered".
func Figure7(env Env, ps []int, n int, density float64) []LoadBalanceResult {
	var out []LoadBalanceResult
	k := int(density * float64(n))
	for _, p := range ps {
		skewed := SyntheticGradients(91, p, n, k, 0.9)
		scheduleA := [][][]float64{skewed, skewed}
		balancedA := figure7Makespan(env, scheduleA, k, 2, true, true)
		naiveReduce := figure7Makespan(env, scheduleA, k, 2, false, true)

		// Boundaries form on a uniform distribution at t=1, then the
		// heavy mass moves into the band covering two of the (stale)
		// equal-size regions.
		uniform := SyntheticGradients(92, p, n, k, 0)
		band := BandGradients(93, p, n, k, 0, 2*n/p)
		scheduleB := [][][]float64{uniform, band}
		balancedB := figure7Makespan(env, scheduleB, k, 64, true, true)
		directAllgather := figure7Makespan(env, scheduleB, k, 64, true, false)
		out = append(out, LoadBalanceResult{
			P:                p,
			ReduceSpeedup:    naiveReduce / balancedA,
			AllgatherSpeedup: directAllgather / balancedB,
		})
	}
	return out
}

// PrintFigure7 writes the speedup bars.
func PrintFigure7(w io.Writer, rs []LoadBalanceResult) {
	fmt.Fprintln(w, "Figure 7: load-balancing speedups (normalized to naive)")
	fmt.Fprintf(w, "  %-8s %-22s %-26s\n", "P", "(a) balanced reduce", "(b) balance+allgatherv")
	for _, r := range rs {
		fmt.Fprintf(w, "  %-8d %-22.2f %-26.2f\n", r.P, r.ReduceSpeedup, r.AllgatherSpeedup)
	}
}

// Breakdown is one stacked bar of the weak-scaling figures: mean modeled
// seconds per iteration by phase.
type Breakdown struct {
	Algorithm string
	P         int
	Sparsify  float64
	Comm      float64
	Compute   float64
	Total     float64
}

// WeakScaling runs every algorithm of the paper's comparison on the
// given workload at one cluster size and returns the per-phase
// breakdowns (Figures 8, 10 and 12). Iterations before warm discard the
// first threshold/boundary evaluations, matching the paper's
// steady-state averages.
func WeakScaling(env Env, workload string, p, batch, iters int, density float64, algorithms []string) []Breakdown {
	if algorithms == nil {
		algorithms = train.AlgorithmNames
	}
	var out []Breakdown
	for _, algo := range algorithms {
		cfg := train.Config{
			Workload:  workload,
			Algorithm: algo,
			P:         p,
			Batch:     batch,
			Seed:      23,
			LR:        lrFor(workload),
			Adam:      workload == "BERT",
			Reduce:    allreduce.Config{Density: density, TauPrime: 8, Tau: 8},
		}
		s := train.NewSession(env.config(cfg))
		const warm = 2
		var sum Breakdown
		count := 0
		cb := func(st train.IterStats) {
			if st.Iter <= warm {
				return
			}
			sum.Compute += st.Phase[netmodel.PhaseCompute]
			sum.Sparsify += st.Phase[netmodel.PhaseSparsify]
			sum.Comm += st.Phase[netmodel.PhaseComm]
			sum.Total += st.IterSeconds
			count++
		}
		s.RunIterations(iters-1, cb)
		// The batch size disambiguates specs that share workload/algo/P
		// (fig12's breakdown and parallel-efficiency specs run
		// concurrently and must not write the same trace file).
		traceFinalIteration(env.TraceDir, s, fmt.Sprintf("weak_%s_%s_P%d_b%d", workload, algo, p, batch), func() {
			cb(s.RunIteration())
		})
		out = append(out, Breakdown{
			Algorithm: algo, P: p,
			Sparsify: sum.Sparsify / float64(count),
			Comm:     sum.Comm / float64(count),
			Compute:  sum.Compute / float64(count),
			Total:    sum.Total / float64(count),
		})
	}
	return out
}

// PrintBreakdowns writes one weak-scaling panel.
func PrintBreakdowns(w io.Writer, title string, bs []Breakdown) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %-11s %-14s %-14s %-16s %-12s\n",
		"Algorithm", "sparsif.(s)", "comm.(s)", "comp.+io (s)", "total (s)")
	var okTotal float64
	for _, b := range bs {
		if b.Algorithm == "OkTopk" {
			okTotal = b.Total
		}
	}
	for _, b := range bs {
		speedup := ""
		if b.Algorithm != "OkTopk" && okTotal > 0 {
			speedup = fmt.Sprintf("  (OkTopk %.2fx)", b.Total/okTotal)
		}
		fmt.Fprintf(w, "  %-11s %-14.4f %-14.4f %-16.4f %-12.4f%s\n",
			b.Algorithm, b.Sparsify, b.Comm, b.Compute, b.Total, speedup)
	}
}

// ParallelEfficiency computes Ok-Topk's weak-scaling parallel efficiency
// between a base and a scaled cluster size (the paper reports 76.3% from
// 32 to 256 GPUs for BERT).
func ParallelEfficiency(env Env, workload string, basePS, scaledPS, batch, iters int, density float64) float64 {
	base := WeakScaling(env, workload, basePS, batch, iters, density, []string{"OkTopk"})
	scaled := WeakScaling(env, workload, scaledPS, batch, iters, density, []string{"OkTopk"})
	return base[0].Total / scaled[0].Total
}
