package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/netmodel"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
	if got := beyond(99, 0.9); got != 9 {
		t.Errorf("beyond(99, 0.9) = %d, want 9: 99 steps are too few for p90", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := median([]float64{3, 1, 2, 5}); got != 2 {
		t.Errorf("median(3,1,2,5) = %v, want the lower middle 2", got)
	}
}

func TestCriticalPathSplit(t *testing.T) {
	a := stepAgg{start: 100, end: 400, lastCompute: 250, lastReduce: 370}
	c, x, tail := criticalPath(a)
	if c != 150 || x != 120 || tail != 30 {
		t.Fatalf("split = %d/%d/%d, want 150/120/30", c, x, tail)
	}
	if c+x+tail != a.end-a.start {
		t.Fatal("split does not add up to the step")
	}
	// A step with no reduce span ends its exchange where compute ended;
	// marks outside the step are clamped into it.
	for _, a := range []stepAgg{
		{start: 100, end: 400, lastCompute: 250},
		{start: 100, end: 400, lastCompute: 50, lastReduce: 900},
	} {
		c, x, tail := criticalPath(a)
		if c < 0 || x < 0 || tail < 0 || c+x+tail != 300 {
			t.Errorf("%+v: split %d/%d/%d", a, c, x, tail)
		}
	}
}

func TestAggregateTakesLastRankOut(t *testing.T) {
	tr := newTracer()
	sec := tr.begin("w", 2)
	sec.steps = []span{{name: "step", step: 3, start: 0, end: 100}}
	sec.ranks[0].spans = []span{
		{name: "nn.compute_batch", step: 3, start: 1, end: 40},
		{name: "core.reduce", step: 3, start: 41, end: 90},
	}
	sec.ranks[1].spans = []span{
		{name: "nn.compute_batch", step: 3, start: 1, end: 60},
		{name: "core.reduce", step: 3, start: 61, end: 80},
		{name: "core.reduce", step: 9, start: 0, end: 1}, // no such step: ignored
	}
	got := aggregate(sec, "core.reduce")
	a := got[3]
	if len(got) != 1 || a.lastCompute != 60 || a.lastReduce != 90 || a.firstReduce != 41 {
		t.Fatalf("aggregate = %+v", a)
	}
	c, x, tail := criticalPath(*a)
	if c != 60 || x != 30 || tail != 10 {
		t.Fatalf("split = %d/%d/%d, want 60/30/10", c, x, tail)
	}
}

func TestPinnedCheck(t *testing.T) {
	p := &pinned{steps: []uint64{1, 2, 3}}
	if ok, err := p.check(2, 2); !ok || err != nil {
		t.Fatalf("matching step: pinned=%v err=%v", ok, err)
	}
	if ok, err := p.check(2, 7); !ok || err == nil {
		t.Fatalf("mismatching step: pinned=%v err=%v", ok, err)
	}
	if ok, err := p.check(4, 7); ok || err != nil {
		t.Fatalf("step past the list: pinned=%v err=%v", ok, err)
	}
	periodic := &pinned{period: 2, steps: []uint64{10, 20}}
	if _, err := periodic.check(5, 10); err != nil {
		t.Fatalf("periodic step 5 is step 1's phase: %v", err)
	}
	if _, err := periodic.check(6, 10); err == nil {
		t.Fatal("periodic step 6 matched step 1's digest")
	}
	var none *pinned
	if ok, err := none.check(1, 0); ok || err != nil {
		t.Fatal("a run at an unpinned seed checked a digest")
	}
}

func TestEmbeddedDigestsCoverEveryWorkload(t *testing.T) {
	pf, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		p, err := pf.forRun(w.name, pf.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil || len(p.steps) == 0 {
			t.Errorf("%s: no pinned digests", w.name)
		}
		if w.name != "train-vgg" && (p.period != w.period || len(p.steps) != w.period) {
			t.Errorf("%s: pinned period %d with %d digests, want %d", w.name, p.period, len(p.steps), w.period)
		}
	}
}

// fakeInst is an instance whose step t has digest t.
type fakeInst struct{}

func (fakeInst) step(int) error                 { return nil }
func (fakeInst) check(t int) (stepOut, error)   { return stepOut{digest: uint64(t), words: 4}, nil }
func (fakeInst) trace(*section)                 {}
func (fakeInst) setupTimes() map[string]float64 { return nil }
func (fakeInst) close() error                   { return nil }

// TestDigestMismatchFailsTheRun drives steps through the runner with a
// perturbed pinned digest: that step fails, the result line says so
// and the exit code is non-zero.
func TestDigestMismatchFailsTheRun(t *testing.T) {
	def := &workloadDef{name: "fake", ranks: 2, period: 1}
	for _, c := range []struct {
		pinned  []string
		failed  int
		correct bool
		code    int
	}{
		{[]string{"1", "2", "3", "4"}, 0, true, 0},
		{[]string{"1", "2", "ff", "4"}, 1, false, 1},
	} {
		pf := pinFile{Seed: 5, Workloads: map[string]pinEntry{"fake": {Steps: c.pinned}}}
		rn, err := newRunner(def, 5, pf)
		if err != nil {
			t.Fatal(err)
		}
		w, err := rn.window(fakeInst{}, 1, 0, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if w.n() != 4 || rn.pinned != 4 {
			t.Fatalf("ran %d steps, %d pinned; want 4 and 4", w.n(), rn.pinned)
		}
		rep := &report{opts: options{out: t.TempDir(), seed: 5}, def: def, runners: []*runner{rn}}
		for _, name := range declared[0] {
			rep.add(metric{Name: name, Unit: "ms", Value: 1})
		}
		var out bytes.Buffer
		code := rep.finish(&out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]map[string]any
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v\n%s", err, out.String())
		}
		if code != c.code || res.Correct != c.correct || res.Failed != c.failed || res.Attempted != 4 {
			t.Errorf("pinned %v: exit %d, result %+v; want exit %d, correct %v, %d of 4 failed\n%s",
				c.pinned, code, res, c.code, c.correct, c.failed, out.String())
		}
		if c.failed > 0 && !strings.Contains(out.String(), "step 3: digest 0000000000000003, pinned 00000000000000ff") {
			t.Errorf("failure not reported:\n%s", out.String())
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric sets the result
// line carries equal to the ones BENCHMARK.json declares, in order.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(bm.EndToEnd); !slices.Equal(got, declared[0]) {
		t.Errorf("end_to_end %v, the benchmark reports %v", got, declared[0])
	}
	if got := names(bm.PerLayer); !slices.Equal(got, declared[1]) {
		t.Errorf("per_layer %v, the benchmark reports %v", got, declared[1])
	}
	var runs []string
	for _, w := range workloads {
		if !w.undeclared {
			runs = append(runs, w.name)
		}
	}
	if got := names(bm.Workloads); !slices.Equal(got, runs) {
		t.Errorf("workloads %v, the benchmark declares %v", got, runs)
	}
}

// TestTracedReduceNestsSpansAndKeepsOutputs runs a small OkTopk reduce
// with and without the decorators: the outputs must not change, and
// every span must nest under one recorded in the same step (run it
// with -race: ranks record concurrently).
func TestTracedReduceNestsSpansAndKeepsOutputs(t *testing.T) {
	const p = 4
	def := &workloadDef{name: "small", ranks: p, period: okTau}
	grads := experiments.SyntheticGradients(1, p, 4096, 64, reduceSkew)
	newInst := func() *reduceInst {
		return newReduceInst("OkTopk", grads, []*cluster.Cluster{cluster.NewWire(p, netmodel.PizDaint(), cluster.WireF32)}, nil)
	}
	digests := func(sec *section) []uint64 {
		in := newInst()
		in.trace(sec)
		rn, err := newRunner(def, 1, pinFile{})
		if err != nil {
			t.Fatal(err)
		}
		w, err := rn.window(in, 1, 0, 2*okTau, sec)
		if err != nil {
			t.Fatal(err)
		}
		if _, failed := rn.counts(); failed != 0 {
			t.Fatalf("%d steps failed: %v", failed, rn.failures)
		}
		var ds []uint64
		for _, o := range w.outs {
			ds = append(ds, o.digest)
		}
		return ds
	}
	plain := digests(nil)
	tr := newTracer()
	sec := tr.begin("small", p)
	traced := digests(sec)
	sec.end()
	if !slices.Equal(plain, traced) {
		t.Fatalf("tracing changed the outputs: %x vs %x", plain, traced)
	}
	byID := map[int64]span{}
	for _, sp := range tr.spans {
		byID[sp.id] = sp
	}
	parentName := map[string]string{"rank": "step", "core.reduce": "rank", "cluster.send": "core.reduce", "cluster.recv": "core.reduce"}
	count := map[string]int{}
	for _, sp := range tr.spans {
		count[sp.name]++
		if sp.name == "step" {
			continue
		}
		parent, ok := byID[sp.parent]
		if !ok || parent.name != parentName[sp.name] || parent.step != sp.step || sp.start < parent.start || sp.end > parent.end {
			t.Fatalf("span %+v: parent %+v", sp, parent)
		}
	}
	if count["step"] != 2*okTau || count["core.reduce"] != 2*okTau*p || count["cluster.send"] == 0 || count["cluster.recv"] == 0 {
		t.Fatalf("span counts %v", count)
	}
	for _, rl := range sec.ranks {
		if rl.reduces != 2*okTau || rl.sendNs <= 0 || rl.recvNs < 0 {
			t.Fatalf("rank %d counters: %d reduces, send %d ns, recv %d ns", rl.rank, rl.reduces, rl.sendNs, rl.recvNs)
		}
	}
}
