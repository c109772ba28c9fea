package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/netmodel"
	"repro/internal/train"
)

// The workloads' fixed parameters.
const (
	vggRanks   = 8
	vggBatch   = 8
	vggDensity = 0.01
	vggTau     = 8
	vggLR      = 0.03 // the VGG learning rate of the experiments layer

	reduceN    = 1000000 // Table 1 gradient size
	reduceK    = 10000   // Table 1 k
	reduceSkew = 0.3     // the skew experiments.MeasureVolume uses
	okRanks    = 32
	okTau      = 4
	denseRanks = 2

	tcpTimeout = 20 * time.Second
)

// workloadDef describes one benchmark workload.
type workloadDef struct {
	name string
	why  string
	// ranks is the cluster size P.
	ranks int
	// period is the number of steps after which the workload's
	// threshold and boundary re-evaluations repeat (1: none). Timed
	// windows cover whole periods.
	period int
	// undeclared marks a workload BENCHMARK.json leaves out: its step
	// times follow the host's floating-point load by more than the
	// bounds allow. It runs when asked for and in every traced run,
	// which takes its layers' metrics from it.
	undeclared bool
	params     map[string]any
	setup      func(seed int64) (instance, error)
}

// instance is one set-up copy of a workload.
type instance interface {
	// step runs step t (1-based): one cluster-wide operation.
	step(t int) error
	// check verifies step t's outputs across ranks and summarizes them.
	// It runs outside the step's timing.
	check(t int) (stepOut, error)
	// trace installs the benchmark's timing decorators, recording into
	// sec; nil restores the program's own objects.
	trace(sec *section)
	// setupTimes reports timed parts of set-up, in ms, by metric name.
	setupTimes() map[string]float64
	close() error
}

// stepOut summarizes one checked step.
type stepOut struct {
	digest  uint64     // pinned-digest input
	modeled float64    // modeled seconds of the step (critical path)
	phase   [3]float64 // mean per-rank modeled [compute, sparsify, comm] seconds
	words   int64      // words sent by all ranks
	msgs    int64      // messages sent by all ranks
	// overhead is Cluster.Run wall time minus the longest rank body, in
	// ns; only measured while traced, and only where the benchmark
	// calls Cluster.Run itself.
	overhead int64
}

var workloads = []*workloadDef{
	{
		name:  "train-vgg",
		why:   "VGG trained with OkTopk at P=8: nn and tensor kernels own the step, the collective about 1%",
		ranks: vggRanks, period: vggTau, undeclared: true,
		params: map[string]any{"model": "VGG", "algorithm": "OkTopk", "P": vggRanks, "batch": vggBatch,
			"density": vggDensity, "tau": vggTau, "tau_prime": vggTau, "wire": "f64", "transport": "inproc",
			"lr": vggLR},
		setup: setupTrain,
	},
	{
		name:  "oktopk-reduce",
		why:   "OkTopk reduce of the Table-1 shape at P=32 on the f32 wire: top-k selection, split-and-reduce and sparse merges",
		ranks: okRanks, period: okTau,
		params: map[string]any{"algorithm": "OkTopk", "P": okRanks, "n": reduceN, "k": reduceK,
			"skew": reduceSkew, "tau": okTau, "tau_prime": okTau, "wire": "f32", "transport": "inproc",
			"net": "PizDaint"},
		setup: func(seed int64) (instance, error) { return setupReduce(seed, "OkTopk", okRanks, false) },
	},
	{
		name:  "dense-reduce-tcp",
		why:   "Dense allreduce of n=1M at P=2 over one loopback TCP connection: frame codec, wire edge and sockets",
		ranks: denseRanks, period: 1,
		params: map[string]any{"algorithm": "Dense", "P": denseRanks, "n": reduceN, "skew": reduceSkew,
			"wire": "f32", "transport": "tcp loopback, both ranks in one process", "net": "PizDaint"},
		setup: func(seed int64) (instance, error) { return setupReduce(seed, "Dense", denseRanks, true) },
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// trainInst is a training session stepped one RunIteration at a time.
type trainInst struct {
	s      *train.Session
	plainW []train.Workload
	plainA []allreduce.Algorithm
	last   train.IterStats
	words  int64 // cumulative words and messages at the last check
	msgs   int64
}

func setupTrain(seed int64) (instance, error) {
	s := train.NewSession(train.Config{
		Workload: "VGG", Algorithm: "OkTopk", P: vggRanks, Batch: vggBatch, Seed: seed, LR: vggLR,
		Reduce: allreduce.Config{Density: vggDensity, TauPrime: vggTau, Tau: vggTau},
	})
	in := &trainInst{s: s}
	for _, tr := range s.Trainers {
		in.plainW = append(in.plainW, tr.W)
		in.plainA = append(in.plainA, tr.Algo)
	}
	return in, nil
}

func (in *trainInst) step(t int) error {
	in.last = in.s.RunIteration()
	if in.last.Iter != t {
		return fmt.Errorf("session ran iteration %d, want %d", in.last.Iter, t)
	}
	return nil
}

func (in *trainInst) check(t int) (stepOut, error) {
	p0 := in.s.Trainers[0].W.Params()
	for r, tr := range in.s.Trainers[1:] {
		if !bitsEqual(tr.W.Params(), p0) {
			return stepOut{}, fmt.Errorf("step %d: rank %d parameters differ from rank 0", t, r+1)
		}
	}
	var words, msgs int64
	for r := range in.s.Trainers {
		st := in.s.Cluster.Comm(r).Clock().Snapshot()
		words += st.SentWords
		msgs += st.SentMsgs
	}
	out := stepOut{
		digest:  mix(mix(fnvOffset, math.Float64bits(in.last.Loss)), math.Float64bits(in.last.IterSeconds)),
		modeled: in.last.IterSeconds,
		phase:   in.last.Phase,
		words:   words - in.words,
		msgs:    msgs - in.msgs,
	}
	in.words, in.msgs = words, msgs
	return out, nil
}

func (in *trainInst) trace(sec *section) {
	for r, tr := range in.s.Trainers {
		if sec == nil {
			tr.W, tr.Algo = in.plainW[r], in.plainA[r]
			continue
		}
		rl := sec.ranks[r]
		tr.W = &tracedWorkload{Workload: in.plainW[r], rl: rl}
		tr.Algo = &tracedAlgo{Algorithm: in.plainA[r], rl: rl, name: "core.reduce"}
	}
}

func (in *trainInst) setupTimes() map[string]float64 { return nil }

func (in *trainInst) close() error { return in.s.Close() }

// reduceInst runs one algorithm's Reduce on every rank per step, over
// the same generated gradients each step. Clocks are reset before each
// step, so a step's modeled time and traffic are its own and the
// outputs repeat with the workload's period.
type reduceInst struct {
	layer    string // span name prefix: "core" or "allreduce"
	grads    [][]float64
	plain    []allreduce.Algorithm
	algos    []allreduce.Algorithm // as called: plain or decorated
	results  []allreduce.Result
	clusters []*cluster.Cluster // one inproc cluster, or one TCP cluster per rank
	errc     chan error
	t        int
	sec      *section
	bodyNs   []int64
	times    map[string]float64
}

// setupReduce generates the gradients and builds the cluster and one
// algorithm instance per rank.
func setupReduce(seed int64, algo string, p int, tcp bool) (instance, error) {
	t0 := time.Now()
	grads := experiments.SyntheticGradients(seed, p, reduceN, reduceK, reduceSkew)
	times := map[string]float64{"experiments.synthetic_gradients_ms": ms(time.Since(t0))}
	var clusters []*cluster.Cluster
	if tcp {
		t1 := time.Now()
		var err error
		if clusters, err = loopbackTCP(p); err != nil {
			return nil, err
		}
		times["cluster.tcp_rendezvous_ms"] = ms(time.Since(t1))
	} else {
		clusters = []*cluster.Cluster{cluster.NewWire(p, netmodel.PizDaint(), cluster.WireF32)}
	}
	return newReduceInst(algo, grads, clusters, times), nil
}

func newReduceInst(algo string, grads [][]float64, clusters []*cluster.Cluster, times map[string]float64) *reduceInst {
	p := len(grads)
	in := &reduceInst{
		layer: "allreduce", grads: grads, clusters: clusters, times: times,
		results: make([]allreduce.Result, p), bodyNs: make([]int64, p),
		errc: make(chan error, len(clusters)),
	}
	if algo == "OkTopk" {
		in.layer = "core"
	}
	for r := 0; r < p; r++ {
		a := train.NewAlgorithm(algo, allreduce.Config{K: reduceK, TauPrime: okTau, Tau: okTau})
		in.plain = append(in.plain, a)
	}
	in.algos = append([]allreduce.Algorithm(nil), in.plain...)
	return in
}

// loopbackTCP joins p TCP clusters, one rank each, over loopback.
func loopbackTCP(p int) ([]*cluster.Cluster, error) {
	clusters := make([]*cluster.Cluster, p)
	errs := make([]error, p)
	addrCh := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		opts := cluster.TCPOptions{Rank: 0, Size: p, Timeout: tcpTimeout,
			OnListen: func(a string) { addrCh <- a }}
		clusters[0], errs[0] = cluster.NewTCP(opts, netmodel.PizDaint(), cluster.WireF32)
		if errs[0] != nil {
			close(addrCh) // wakes the receive below if listening failed
		}
	}()
	addr, ok := <-addrCh
	if ok {
		for r := 1; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				opts := cluster.TCPOptions{Rank: r, Size: p, Rendezvous: addr, Timeout: tcpTimeout}
				clusters[r], errs[r] = cluster.NewTCP(opts, netmodel.PizDaint(), cluster.WireF32)
			}(r)
		}
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			for _, c := range clusters {
				if c != nil {
					c.Abort()
				}
			}
			return nil, fmt.Errorf("tcp rendezvous: rank %d: %w", r, err)
		}
	}
	return clusters, nil
}

func (in *reduceInst) comm(r int) *cluster.Comm {
	if len(in.clusters) == 1 {
		return in.clusters[0].Comm(r)
	}
	return in.clusters[r].Comm(r)
}

func (in *reduceInst) body(cm *cluster.Comm) error {
	r := cm.Rank()
	if in.sec == nil {
		in.results[r] = in.algos[r].Reduce(cm, in.grads[r], in.t)
		return nil
	}
	rl := in.sec.ranks[r]
	id, start := rl.open()
	rl.cur = id
	in.results[r] = in.algos[r].Reduce(cm, in.grads[r], in.t)
	rl.cur = 0
	rl.close("rank", id, in.sec.stepID, start)
	in.bodyNs[r] = rl.spans[len(rl.spans)-1].end - start
	return nil
}

// run executes one Cluster.Run per cluster concurrently and returns the
// first error.
func (in *reduceInst) run() error {
	for _, c := range in.clusters[1:] {
		go func(c *cluster.Cluster) {
			defer func() {
				if p := recover(); p != nil {
					in.errc <- fmt.Errorf("%v", p)
				}
			}()
			in.errc <- c.Run(in.body)
		}(c)
	}
	err := in.clusters[0].Run(in.body)
	for range in.clusters[1:] {
		if e := <-in.errc; err == nil {
			err = e
		}
	}
	return err
}

func (in *reduceInst) step(t int) error {
	for _, c := range in.clusters {
		c.ResetClocks()
	}
	in.t = t
	if in.sec == nil {
		return in.run()
	}
	start := in.sec.tr.now()
	err := in.run()
	wall := in.sec.tr.now() - start
	var longest int64
	for _, b := range in.bodyNs {
		longest = max(longest, b)
	}
	in.sec.overhead = wall - longest
	return err
}

func (in *reduceInst) check(t int) (stepOut, error) {
	u0 := in.results[0].Update
	for r := 1; r < len(in.results); r++ {
		if !bitsEqual(in.results[r].Update, u0) {
			return stepOut{}, fmt.Errorf("step %d: rank %d update differs from rank 0", t, r)
		}
	}
	out := stepOut{}
	h := hashFloats(fnvOffset, u0)
	p := float64(len(in.results))
	for r := range in.results {
		st := in.comm(r).Clock().Snapshot()
		h = mix(mix(h, math.Float64bits(st.Time)), uint64(st.SentWords))
		out.modeled = max(out.modeled, st.Time)
		out.words += st.SentWords
		out.msgs += st.SentMsgs
		for i := range out.phase {
			out.phase[i] += st.PhaseTime[i] / p
		}
	}
	out.digest = h
	if in.sec != nil {
		out.overhead = in.sec.overhead
	}
	return out, nil
}

func (in *reduceInst) trace(sec *section) {
	in.sec = sec
	for r := range in.algos {
		if sec == nil {
			in.algos[r] = in.plain[r]
			continue
		}
		in.algos[r] = &tracedAlgo{Algorithm: in.plain[r], rl: sec.ranks[r], name: in.layer + ".reduce"}
	}
}

func (in *reduceInst) setupTimes() map[string]float64 { return in.times }

func (in *reduceInst) close() error {
	var first error
	for _, c := range in.clusters {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// inprocTwin returns the same reduce on the in-process transport, over
// the same gradients: the reference the TCP workload is checked
// against.
func (in *reduceInst) inprocTwin() *reduceInst {
	p := len(in.grads)
	c := cluster.NewWire(p, netmodel.PizDaint(), cluster.WireF32)
	return newReduceInst(in.plain[0].Name(), in.grads, []*cluster.Cluster{c}, nil)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
