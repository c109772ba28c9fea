package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/allreduce"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/topk"
	"repro/internal/train"
)

// traceRun is the per-layer run. A traced result line carries every
// per-layer metric BENCHMARK.json declares, and each layer's metrics
// come from the workload that exercises it, so the run sets up all
// three workloads in turn. Each gets an untraced window and then a
// traced one, seconds/4 each; the metrics any workload has (cluster
// counters, GC, tracing overhead) are taken from the selected workload.
// Standalone calls into tensor, nn, topk and sparse follow.
func traceRun(rep *report, pf pinFile) error {
	tr := newTracer()
	rep.samples = map[string]int{}
	for _, def := range workloads {
		if err := traceWorkload(rep, pf, tr, def, rep.opts.seconds/4); err != nil {
			return err
		}
	}
	for _, m := range standaloneMetrics(rep.opts.seed) {
		rep.add(m)
	}
	dir := filepath.Join(rep.opts.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rep.spanFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", rep.def.name, rep.opts.seed))
	rep.samples["spans"] = len(tr.spans)
	return tr.writeChrome(rep.spanFile)
}

func traceWorkload(rep *report, pf pinFile, tr *tracer, def *workloadDef, secs float64) error {
	rn, err := newRunner(def, rep.opts.seed, pf)
	if err != nil {
		return err
	}
	rep.runners = append(rep.runners, rn)
	in, _, err := rn.setup(1)
	if err != nil {
		return err
	}
	defer in.close()
	minN := 2 * def.period
	un, err := rn.window(in, warmSteps+1, secs, minN, nil)
	if err != nil {
		return err
	}
	sec := tr.begin(def.name, def.ranks)
	in.trace(sec)
	tw, err := rn.window(in, un.next(), secs, minN, sec)
	in.trace(nil)
	sec.end()
	if err != nil {
		return err
	}
	twin, err := rn.checkTwin(in)
	if err != nil {
		return err
	}
	rep.samples[def.name+".untraced_steps"] = un.n()
	rep.samples[def.name+".traced_steps"] = tw.n()
	ms := layerMetrics(def, un, tw, sec, in.setupTimes())
	if def == rep.def {
		ms = append(ms, commonMetrics(def, un, tw, sec)...)
	}
	switch def.name {
	case "oktopk-reduce":
		ms = append(ms, selectionMetrics(in.(*reduceInst).grads)...)
	case "dense-reduce-tcp":
		m, err := tcpOverInproc(rn, twin, un, secs)
		if err != nil {
			return err
		}
		ms = append(ms, m)
	}
	for _, m := range ms {
		rep.add(m)
	}
	return nil
}

// stepAgg is the critical path of one traced step.
type stepAgg struct {
	start, end int64 // the step span
	// lastCompute and lastReduce are when the last rank left
	// ComputeBatch and Reduce; firstReduce is when the first entered
	// Reduce.
	lastCompute, lastReduce, firstReduce int64
}

// aggregate groups a section's spans by step.
func aggregate(sec *section, reduceName string) map[int]*stepAgg {
	steps := map[int]*stepAgg{}
	for _, sp := range sec.steps {
		steps[sp.step] = &stepAgg{start: sp.start, end: sp.end, firstReduce: sp.end}
	}
	for _, rl := range sec.ranks {
		for _, sp := range rl.spans {
			a := steps[sp.step]
			if a == nil {
				continue
			}
			switch sp.name {
			case "nn.compute_batch":
				a.lastCompute = max(a.lastCompute, sp.end)
			case reduceName:
				a.lastReduce = max(a.lastReduce, sp.end)
				a.firstReduce = min(a.firstReduce, sp.start)
			}
		}
	}
	return steps
}

// criticalPath splits a training step at the moments the last rank left
// ComputeBatch and Reduce: compute is the step start to the first, the
// exchange is between the two, and the tail (residual and update
// loops, stats aggregation, goroutine join) is the rest.
func criticalPath(a stepAgg) (compute, exchange, tail int64) {
	c := min(max(a.lastCompute, a.start), a.end)
	r := min(max(a.lastReduce, c), a.end)
	return c - a.start, r - c, a.end - r
}

// layerMetrics are the metrics of the layers def is the workload for.
func layerMetrics(def *workloadDef, un, tw *window, sec *section, times map[string]float64) []metric {
	var ms []metric
	n := tw.n()
	src := def.name
	switch def.name {
	case "train-vgg":
		var comp, exch, tail, batches []float64
		for _, a := range aggregate(sec, "core.reduce") {
			c, x, t := criticalPath(*a)
			comp = append(comp, nsToMS(c))
			exch = append(exch, nsToMS(x))
			tail = append(tail, nsToMS(t))
		}
		for _, rl := range sec.ranks {
			for _, sp := range rl.spans {
				if sp.name == "nn.compute_batch" {
					batches = append(batches, nsToMS(sp.end-sp.start))
				}
			}
		}
		ms = append(ms,
			metric{Name: "train.compute_wall_ms", Unit: "ms", Value: median(comp), Samples: len(comp), Source: src, Note: "p50 per step"},
			metric{Name: "train.exchange_wall_ms", Unit: "ms", Value: median(exch), Samples: len(exch), Source: src, Note: "p50 per step"},
			metric{Name: "train.tail_wall_ms", Unit: "ms", Value: median(tail), Samples: len(tail), Source: src, Note: "p50 per step"},
			metric{Name: "nn.compute_batch_ms", Unit: "ms", Value: median(batches), Samples: len(batches), Source: src,
				Note: fmt.Sprintf("p50 per call, %d ranks contending", def.ranks)},
		)
	case "oktopk-reduce", "dense-reduce-tcp":
		layer := "allreduce"
		if def.name == "oktopk-reduce" {
			layer = "core"
		}
		var wall []float64
		for _, a := range aggregate(sec, layer+".reduce") {
			wall = append(wall, nsToMS(a.lastReduce-a.firstReduce))
		}
		var recv int64
		for _, rl := range sec.ranks {
			recv += rl.recvNs
		}
		ms = append(ms,
			metric{Name: layer + ".reduce_ms", Unit: "ms", Value: mean(wall), Samples: len(wall), Source: src,
				Note: "mean per step, first rank in to last rank out"},
			metric{Name: layer + ".reduce_wait_ms", Unit: "ms", Value: nsToMS(recv) / float64(n), Samples: n, Source: src,
				Note: "mean per step, blocked in receives, summed over ranks"},
		)
	}
	switch def.name {
	case "oktopk-reduce":
		var reuse, reeval []float64
		for i, d := range un.durs {
			if t := un.first + i; (t-1)%def.period == 0 {
				reeval = append(reeval, d)
			} else {
				reuse = append(reuse, d)
			}
		}
		var localK, globalK, reduces, overhead int64
		for _, rl := range sec.ranks {
			localK += rl.localK
			globalK += rl.globalK
			reduces += rl.reduces
		}
		for _, o := range tw.outs {
			overhead += o.overhead
		}
		kk := float64(reduces) * float64(reduceK)
		ms = append(ms,
			metric{Name: "core.reuse_step_ms", Unit: "ms", Value: median(reuse), Samples: len(reuse), Source: src, Note: "p50, untraced"},
			metric{Name: "core.reeval_step_ms", Unit: "ms", Value: median(reeval), Samples: len(reeval), Source: src, Note: "p50, untraced"},
			metric{Name: "core.local_k_ratio", Unit: "ratio", Value: float64(localK) / kk, Samples: int(reduces), Source: src, Note: "mean LocalK/k"},
			metric{Name: "core.global_k_ratio", Unit: "ratio", Value: float64(globalK) / kk, Samples: int(reduces), Source: src, Note: "mean GlobalK/k"},
			metric{Name: "cluster.run_overhead_ms", Unit: "ms", Value: nsToMS(overhead) / float64(n), Samples: n, Source: src,
				Note: "mean per step, Run wall minus longest rank body"},
			metric{Name: "experiments.synthetic_gradients_ms", Unit: "ms", Value: times["experiments.synthetic_gradients_ms"], Samples: 1, Source: src,
				Note: fmt.Sprintf("P=%d x n=%d", def.ranks, reduceN)},
		)
	case "dense-reduce-tcp":
		var words float64
		for _, o := range un.outs {
			words += float64(o.words)
		}
		p50 := percentile(sortedCopy(un.durs), 0.5)
		ms = append(ms,
			metric{Name: "cluster.tcp_wire_mb_per_s", Unit: "MB/s", Value: words / float64(un.n()) * 8 / (p50 / 1e3) / 1e6,
				Samples: un.n(), Source: src, Note: "payload bytes of both ranks per p50 step, untraced"},
			metric{Name: "cluster.tcp_rendezvous_ms", Unit: "ms", Value: times["cluster.tcp_rendezvous_ms"], Samples: 1, Source: src},
		)
	}
	return ms
}

// commonMetrics are the metrics every workload has; they come from the
// selected workload.
func commonMetrics(def *workloadDef, un, tw *window, sec *section) []metric {
	src := def.name
	n := tw.n()
	var send, recv, barrier int64
	for _, rl := range sec.ranks {
		send += rl.sendNs
		recv += rl.recvNs
		barrier += rl.barrierNs
	}
	var words, msgs float64
	var phase [3]float64
	for _, o := range un.outs {
		words += float64(o.words)
		msgs += float64(o.msgs)
		for i := range phase {
			phase[i] += o.phase[i]
		}
	}
	un1, n1 := float64(un.n()), un.n()
	perStep := "mean per step, summed over ranks"
	return []metric{
		{Name: "cluster.msgs_per_step", Unit: "count", Value: msgs / un1, Samples: n1, Source: src, Note: "all ranks, Cluster clock stats"},
		{Name: "cluster.words_per_step", Unit: "words", Value: words / un1, Samples: n1, Source: src, Note: "all ranks, Cluster clock stats"},
		{Name: "cluster.send_ms", Unit: "ms", Value: nsToMS(send) / float64(n), Samples: n, Source: src, Note: perStep},
		{Name: "cluster.recv_wait_ms", Unit: "ms", Value: nsToMS(recv) / float64(n), Samples: n, Source: src, Note: perStep},
		{Name: "cluster.barrier_wait_ms", Unit: "ms", Value: nsToMS(barrier) / float64(n), Samples: n, Source: src,
			Note: perStep + "; no workload's Reduce calls Barrier"},
		{Name: "runtime.gc_cycles_per_step", Unit: "count", Value: float64(un.mem1.NumGC-un.mem0.NumGC) / un1, Samples: n1, Source: src, Note: "untraced"},
		{Name: "runtime.gc_pause_ms_per_step", Unit: "ms", Value: float64(un.mem1.PauseTotalNs-un.mem0.PauseTotalNs) / 1e6 / un1, Samples: n1, Source: src, Note: "untraced"},
		{Name: "bench.trace_overhead_frac", Unit: "ratio", Value: 1 - tw.stepsPerSecond()/un.stepsPerSecond(), Samples: n, Source: src,
			Note: fmt.Sprintf("traced %.3f vs untraced %.3f steps/s", tw.stepsPerSecond(), un.stepsPerSecond())},
		{Name: "netmodel.compute_ms", Unit: "modeled_ms", Value: phase[0] / un1 * 1e3, Samples: n1, Source: src, Note: "mean per rank and step"},
		{Name: "netmodel.sparsify_ms", Unit: "modeled_ms", Value: phase[1] / un1 * 1e3, Samples: n1, Source: src, Note: "mean per rank and step"},
		{Name: "netmodel.comm_ms", Unit: "modeled_ms", Value: phase[2] / un1 * 1e3, Samples: n1, Source: src, Note: "mean per rank and step"},
	}
}

// tcpOverInproc times the in-process twin of the TCP reduce over the
// same number of host seconds and divides the two p50 step times.
func tcpOverInproc(rn *runner, twin *reduceInst, tcp *window, secs float64) (metric, error) {
	defer twin.close()
	var ds []float64
	var elapsed float64
	for t := rn.def.period + 1; elapsed < secs || len(ds) < minSteps; t++ {
		start := time.Now()
		if err := twin.step(t); err != nil {
			return metric{}, fmt.Errorf("in-process twin step %d: %w", t, err)
		}
		d := ms(time.Since(start))
		if _, err := twin.check(t); err != nil {
			return metric{}, fmt.Errorf("in-process twin: %w", err)
		}
		ds = append(ds, d)
		elapsed += d / 1e3
	}
	tcpP50 := percentile(sortedCopy(tcp.durs), 0.5)
	inP50 := median(ds)
	return metric{Name: "cluster.tcp_over_inproc", Unit: "ratio", Value: tcpP50 / inP50, Samples: len(ds), Source: rn.def.name,
		Note: fmt.Sprintf("p50 %.3f ms over tcp / %.3f ms in-process, untraced", tcpP50, inP50)}, nil
}

// selectionMetrics times topk and sparse calls on the oktopk-reduce
// gradients: rank 0's for selection, all ranks' for the sparse reduce.
func selectionMetrics(grads [][]float64) []metric {
	src := "standalone on oktopk-reduce gradients"
	acc := grads[0]
	var scratch []float64
	var th float64
	thr := timeCalls(9, func() { th, scratch = topk.ThresholdInto(acc, reduceK, scratch) })
	var idx []int32
	sel := timeCalls(21, func() { idx = topk.AppendSelectByThreshold(idx[:0], acc, th) })
	ths := make([]float64, len(grads))
	for r, g := range grads {
		ths[r], scratch = topk.ThresholdInto(g, reduceK, scratch)
	}
	vs := make([]*sparse.Vec, len(grads))
	var nnz int
	red := timeCalls(5, func() {
		for r, g := range grads {
			vs[r] = sparse.FromDenseThresholdInto(vs[r], g, ths[r])
		}
		nnz = sparse.Reduce(vs).NNZ()
	})
	return []metric{
		{Name: "topk.threshold_ms", Unit: "ms", Value: median(thr), Samples: len(thr), Source: src,
			Note: fmt.Sprintf("ThresholdInto n=%d k=%d, p50", len(acc), reduceK)},
		{Name: "topk.select_ms", Unit: "ms", Value: median(sel), Samples: len(sel), Source: src,
			Note: fmt.Sprintf("AppendSelectByThreshold, %d selected, p50", len(idx))},
		{Name: "sparse.reduce_ms", Unit: "ms", Value: median(red), Samples: len(red), Source: src,
			Note: fmt.Sprintf("FromDenseThresholdInto x%d + sparse.Reduce -> %d nonzeros, p50", len(grads), nnz)},
	}
}

// vggGemms are the conv2 GEMMs of VGG at batch 8 (conv2 and conv3 carry
// the most conv work; conv2 has the longer rows): forward MatMul
// (im2col x weights), the weight-gradient GemmTA and the data-gradient
// MatMulTB, as M x K x N of C = A·B.
var vggGemms = []struct {
	kernel  string
	m, k, n int
}{
	{"MatMul", vggBatch * 16 * 16, 16 * 9, 32},
	{"GemmTA", 16 * 9, vggBatch * 16 * 16, 32},
	{"MatMulTB", vggBatch * 16 * 16, 32, 16 * 9},
}

// standaloneMetrics times single calls into tensor, nn and train.
func standaloneMetrics(seed int64) []metric {
	var ms []metric
	r := rand.New(rand.NewSource(seed))
	fill := func(rows, cols int) *tensor.Mat {
		m := tensor.NewMat(rows, cols)
		tensor.RandN(r, m.Data, 1)
		return m
	}
	for _, g := range vggGemms {
		var call func()
		c := tensor.NewMat(g.m, g.n)
		switch g.kernel {
		case "MatMul":
			a, b := fill(g.m, g.k), fill(g.k, g.n)
			call = func() { tensor.MatMul(a, b, c) }
		case "GemmTA":
			a, b := fill(g.k, g.m), fill(g.k, g.n)
			call = func() { tensor.GemmTA(a, b, c) }
		case "MatMulTB":
			a, b := fill(g.m, g.k), fill(g.n, g.k)
			call = func() { tensor.MatMulTB(a, b, c) }
		}
		ts := timeCalls(15, call)
		flops := 2 * float64(g.m) * float64(g.k) * float64(g.n)
		bytes := 8 * float64(g.m*g.k+g.k*g.n+g.m*g.n)
		ms = append(ms, metric{Name: fmt.Sprintf("tensor.gemm_gflops.%dx%dx%d", g.m, g.k, g.n), Unit: "GFLOP/s",
			Value: flops / (median(ts) / 1e3) / 1e9, Samples: len(ts), Source: "standalone",
			Note: fmt.Sprintf("%s, %.3g flop, %.3g B of operands, p50", g.kernel, flops, bytes)})
	}
	const axpyN = 500000
	x, y := make([]float64, axpyN), make([]float64, axpyN)
	tensor.RandN(r, x, 1)
	ts := timeCalls(101, func() { tensor.Axpy(1e-9, x, y) })
	ms = append(ms, metric{Name: "tensor.axpy_gb_per_s", Unit: "GB/s", Value: 24 * axpyN / (median(ts) / 1e3) / 1e9,
		Samples: len(ts), Source: "standalone",
		Note: fmt.Sprintf("Axpy n=%d, %d flop, %d B moved, p50", axpyN, 2*axpyN, 24*axpyN)})

	w := train.NewWorkload("VGG", seed, seed+1)
	wr := rand.New(rand.NewSource(seed + 1000))
	ts = timeCalls(15, func() {
		w.ZeroGrads()
		w.ComputeBatch(wr, vggBatch)
	})
	ms = append(ms, metric{Name: "nn.compute_batch_solo_ms", Unit: "ms", Value: median(ts), Samples: len(ts),
		Source: "standalone", Note: "one VGG replica alone, p50"})

	s := train.NewSession(train.Config{Workload: "VGG", Algorithm: "OkTopk", P: 1, Batch: vggBatch, Seed: seed, LR: vggLR,
		Reduce: allreduce.Config{Density: vggDensity, TauPrime: vggTau, Tau: vggTau}})
	s.RunIterations(warmSteps, nil)
	ts = timeCalls(2*vggTau, func() { s.RunIteration() })
	s.Close()
	ms = append(ms, metric{Name: "train.single_worker_step_ms", Unit: "ms", Value: median(ts), Samples: len(ts),
		Source: "standalone", Note: "train-vgg at P=1, p50"})
	return ms
}

// timeCalls runs f once to warm up, then n times, and returns each
// call's host time in ms.
func timeCalls(n int, f func()) []float64 {
	f()
	runtime.GC()
	ts := make([]float64, n)
	for i := range ts {
		start := time.Now()
		f()
		ts[i] = ms(time.Since(start))
	}
	return ts
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }
