// Command bench is the repository's host wall-clock benchmark. One
// process runs one workload as a closed loop — one goroutine issues
// the next step only after the previous one returned — and checks every
// step's outputs:
//
//   - train-vgg: one Session.RunIteration of VGG trained with OkTopk;
//   - oktopk-reduce: one Cluster.Run of every rank's OkTopk Reduce;
//   - dense-reduce-tcp: one Dense Reduce on each of two TCP clusters
//     joined over loopback.
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it wraps
// the program's layers in timing decorators, writes the spans as Chrome
// trace-event JSON and prints the per-layer metrics. Run it from the
// repository root through bench/run.sh, which builds it first:
//
//	bash bench/run.sh -workload oktopk-reduce -seed 1 -seconds 20 -trace 0
//
// -workload all runs the three one after another, each in a process of
// its own. The last line of a workload's standard output is one JSON
// object with the keys correct, attempted, failed and metrics; the lines
// before it are for people. The full record of a run (host fingerprint,
// parameters, sample counts, every metric) goes to <out>/results/. The
// exit code is non-zero when any step failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// warmSteps is the warm-up that set-up ends with: the first
	// threshold and boundary evaluation and the first reuse step.
	warmSteps = 2
	// setupReps is how many times a run sets its workload up; setup_s
	// is the median and the last copy is measured.
	setupReps = 7
	// minSteps leaves at least ten samples beyond step_ms_p90.
	minSteps = 100
	// maxFailures bounds the failure messages a run keeps.
	maxFailures = 20
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	pin      string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all (each in its own process)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the generated inputs and the training data")
	fs.Float64Var(&o.seconds, "seconds", 30, "host seconds of steps to measure")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for result records and span files")
	fs.StringVar(&o.pin, "pin", "", "record the pinned step digests of every workload into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.pin != "" {
		if err := pinDigests(o.pin, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	def := findWorkload(o.workload)
	if (def == nil && o.workload != "all") || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "bench: need -workload (%s or all), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if def == nil {
		return runAll(o, stdout, stderr)
	}
	pf, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep := &report{opts: o, def: def, host: fingerprint(".")}
	fmt.Fprintf(stdout, "bench: workload=%s seed=%d seconds=%g trace=%d\n", def.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "host: cpu=%q nproc=%d gomaxprocs=%d tensor_workers=%d %s %s/%s goamd64=%s commit=%s source=%.16s\n",
		rep.host.CPU, rep.host.NProc, rep.host.GOMAXPROCS, rep.host.TensorWorkers, rep.host.GoVersion,
		rep.host.GOOS, rep.host.GOARCH, rep.host.GOAMD64, rep.host.Commit, rep.host.SourceSHA256)
	fmt.Fprintf(stdout, "params: %s\n", paramString(def.params))
	if o.trace == 1 {
		err = traceRun(rep, pf)
	} else {
		err = endToEnd(rep, pf)
	}
	if err != nil {
		rep.fatal = err.Error()
	}
	return rep.finish(stdout)
}

// runAll runs every workload with the same options, each in a process
// of its own so that peak RSS and allocation counts stay per workload,
// and fails if any of them failed.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace), "-out", o.out}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// stepRec is one attempted step: warm-up, timed, or reference.
type stepRec struct {
	setup  int
	t      int
	digest uint64
	failed bool
}

// runner steps one workload and accounts its failures.
type runner struct {
	def      *workloadDef
	seed     int64
	pins     *pinned
	setupNo  int
	recs     []stepRec
	failures []string
	pinned   int
}

func newRunner(def *workloadDef, seed int64, pf pinFile) (*runner, error) {
	p, err := pf.forRun(def.name, seed)
	if err != nil {
		return nil, err
	}
	return &runner{def: def, seed: seed, pins: p, recs: make([]stepRec, 0, 1<<16)}, nil
}

func (rn *runner) fail(i int, err error) {
	if i >= 0 {
		rn.recs[i].failed = true
	}
	if len(rn.failures) < maxFailures {
		rn.failures = append(rn.failures, rn.def.name+": "+err.Error())
	}
}

func (rn *runner) counts() (attempted, failed int) {
	for _, r := range rn.recs {
		if r.failed {
			failed++
		}
	}
	return len(rn.recs), failed
}

// safely runs f, turning a panic into an error.
func safely(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// doStep runs, times and checks step t. It returns the step's host time,
// the time its checks took, and an error only when the step itself
// failed (after which the instance is not stepped again).
func (rn *runner) doStep(in instance, t int, sec *section, detail bool) (time.Duration, time.Duration, stepOut, error) {
	rn.recs = append(rn.recs, stepRec{setup: rn.setupNo, t: t})
	i := len(rn.recs) - 1
	var open int64
	if sec != nil {
		open = sec.openStep(t, detail)
	}
	start := time.Now()
	err := safely(func() error { return in.step(t) })
	d := time.Since(start)
	if sec != nil {
		sec.closeStep(open)
	}
	if err != nil {
		err = fmt.Errorf("step %d: %w", t, err)
		rn.fail(i, err)
		return d, 0, stepOut{}, err
	}
	var out stepOut
	cerr := safely(func() error {
		var err error
		out, err = in.check(t)
		return err
	})
	if cerr == nil {
		rn.recs[i].digest = out.digest
		var pinned bool
		pinned, cerr = rn.pins.check(t, out.digest)
		if pinned {
			rn.pinned++
		}
	}
	if cerr != nil {
		rn.fail(i, cerr)
	}
	return d, time.Since(start) - d, out, nil
}

// setup builds the workload reps times, closing all but the last copy,
// and returns the copy with each set-up's duration in seconds. A set-up
// ends with the warm-up steps; the checks' own time is not counted.
func (rn *runner) setup(reps int) (instance, []float64, error) {
	var in instance
	var secs []float64
	for i := 0; i < reps; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, nil, fmt.Errorf("close: %w", err)
			}
			in = nil
		}
		runtime.GC()
		rn.setupNo++
		start := time.Now()
		var checks time.Duration
		err := safely(func() error {
			var err error
			in, err = rn.def.setup(rn.seed)
			return err
		})
		if err != nil {
			// A set-up that fails fails the steps it was to run.
			rn.recs = append(rn.recs, stepRec{setup: rn.setupNo})
			rn.fail(len(rn.recs)-1, fmt.Errorf("setup: %w", err))
			return nil, nil, err
		}
		for t := 1; t <= warmSteps; t++ {
			_, c, _, err := rn.doStep(in, t, nil, false)
			if err != nil {
				in.close()
				return nil, nil, err
			}
			checks += c
		}
		secs = append(secs, (time.Since(start) - checks).Seconds())
	}
	return in, secs, nil
}

// window is one timed run of whole periods.
type window struct {
	first      int       // first step number
	durs       []float64 // host ms per step
	outs       []stepOut
	mem0, mem1 runtime.MemStats
}

func (w *window) n() int { return len(w.durs) }

// seconds is the window's host time: the sum of its step times. The
// checks between steps are not part of it.
func (w *window) seconds() float64 {
	var s float64
	for _, d := range w.durs {
		s += d
	}
	return s / 1e3
}

func (w *window) stepsPerSecond() float64 { return float64(w.n()) / w.seconds() }

// window steps in from step t in whole periods until target seconds of
// steps and at least minN steps have run. While traced, the first
// detailSteps steps record a span per cluster call.
func (rn *runner) window(in instance, t int, target float64, minN int, sec *section) (*window, error) {
	const detailSteps = 4
	w := &window{first: t, durs: make([]float64, 0, 1<<16), outs: make([]stepOut, 0, 1<<16)}
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	var elapsed time.Duration
	for elapsed.Seconds() < target || w.n() < minN {
		for j := 0; j < rn.def.period; j++ {
			detail := w.n() < max(detailSteps, rn.def.period)
			d, _, out, err := rn.doStep(in, t, sec, detail)
			if err != nil {
				runtime.ReadMemStats(&w.mem1)
				return w, err
			}
			elapsed += d
			w.durs = append(w.durs, ms(d))
			w.outs = append(w.outs, out)
			t++
		}
	}
	runtime.ReadMemStats(&w.mem1)
	return w, nil
}

// next is the step number after the window.
func (w *window) next() int { return w.first + w.n() }

// checkTwin runs the in-process twin of a TCP reduce for one period
// and checks that every step of the TCP copy's current set-up matched
// the twin's step at the same phase: same update, same per-rank clocks
// and traffic. It returns the twin (set up and warmed) for further use.
func (rn *runner) checkTwin(in instance) (*reduceInst, error) {
	ri, ok := in.(*reduceInst)
	if !ok || len(ri.clusters) == 1 {
		return nil, nil
	}
	twin := ri.inprocTwin()
	ref := make([]uint64, rn.def.period)
	for t := 1; t <= rn.def.period; t++ {
		if err := safely(func() error { return twin.step(t) }); err != nil {
			return nil, fmt.Errorf("in-process reference step %d: %w", t, err)
		}
		out, err := twin.check(t)
		if err != nil {
			return nil, fmt.Errorf("in-process reference: %w", err)
		}
		ref[t-1] = out.digest
	}
	for i, r := range rn.recs {
		if r.setup != rn.setupNo || r.t == 0 || r.failed {
			continue
		}
		if want := ref[(r.t-1)%len(ref)]; r.digest != want {
			rn.fail(i, fmt.Errorf("step %d: digest %016x differs from the in-process transport's %016x", r.t, r.digest, want))
		}
	}
	return twin, nil
}

// endToEnd is the untraced run: set-up several times, one timed window.
func endToEnd(rep *report, pf pinFile) error {
	rn, err := newRunner(rep.def, rep.opts.seed, pf)
	if err != nil {
		return err
	}
	rep.runners = append(rep.runners, rn)
	in, setups, err := rn.setup(setupReps)
	if err != nil {
		return err
	}
	defer in.close()
	w, err := rn.window(in, warmSteps+1, rep.opts.seconds, minSteps, nil)
	if err != nil {
		return err
	}
	// Read the peak before the in-process twin adds its own buffers.
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	twin, err := rn.checkTwin(in)
	if err != nil {
		return err
	}
	if twin != nil {
		twin.close()
	}
	n := w.n()
	sorted := sortedCopy(w.durs)
	var words int64
	var modeled float64
	for _, o := range w.outs {
		words += o.words
		modeled += o.modeled
	}
	attempted, failed := rn.counts()
	src := rep.def.name
	rep.stepMS = w.durs
	rep.samples = map[string]int{"timed_steps": n, "setups": len(setups), "warmup_steps_per_setup": warmSteps,
		"steps_beyond_p90": beyond(n, 0.9), "pinned_steps_checked": rn.pinned}
	rep.add(metric{Name: "steps_per_s", Unit: "1/s", Value: w.stepsPerSecond(), Samples: n, Source: src,
		Note: fmt.Sprintf("%.1f s of steps", w.seconds())})
	rep.add(metric{Name: "step_ms_p50", Unit: "ms", Value: percentile(sorted, 0.5), Samples: n, Source: src})
	rep.add(metric{Name: "step_ms_p90", Unit: "ms", Value: percentile(sorted, 0.9), Samples: n, Source: src,
		Note: fmt.Sprintf("%d steps beyond", beyond(n, 0.9))})
	rep.add(metric{Name: "setup_s", Unit: "s", Value: median(setups), Samples: len(setups), Source: src,
		Note: "median of set-ups"})
	rep.add(metric{Name: "peak_rss_mb", Unit: "MB", Value: rss, Samples: 1, Source: src})
	rep.add(metric{Name: "allocs_per_step", Unit: "count", Value: float64(w.mem1.Mallocs-w.mem0.Mallocs) / float64(n),
		Samples: n, Source: src})
	rep.add(metric{Name: "alloc_bytes_per_step", Unit: "B", Value: float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / float64(n),
		Samples: n, Source: src})
	rep.add(metric{Name: "failed_step_frac", Unit: "ratio", Value: float64(failed) / float64(attempted),
		Samples: attempted, Source: src, Note: fmt.Sprintf("%d of %d steps", failed, attempted)})
	rep.add(metric{Name: "modeled_ms_per_step", Unit: "modeled_ms", Value: modeled / float64(n) * 1e3,
		Samples: n, Source: src})
	rep.add(metric{Name: "sent_words_per_rank", Unit: "words", Value: float64(words) / float64(n*rep.def.ranks),
		Samples: n, Source: src, Note: "per step"})
	return nil
}

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	// Source is the workload (or "standalone" call) it was measured on.
	Source string `json:"source"`
	Note   string `json:"note,omitempty"`
	// Declared marks the metrics BENCHMARK.json declares; the others
	// are printed and recorded only.
	Declared bool `json:"declared"`
}

// declared lists the metrics BENCHMARK.json declares: the result line
// of an untraced run carries exactly the end-to-end ones, that of a
// traced run exactly the per-layer ones.
var declared = [2][]string{
	{"steps_per_s", "step_ms_p50", "step_ms_p90", "setup_s", "peak_rss_mb", "allocs_per_step", "alloc_bytes_per_step"},
	{
		"train.compute_wall_ms", "train.exchange_wall_ms", "train.tail_wall_ms", "train.single_worker_step_ms",
		"nn.compute_batch_ms", "nn.compute_batch_solo_ms",
		"tensor.gemm_gflops.2048x144x32", "tensor.gemm_gflops.144x2048x32", "tensor.gemm_gflops.2048x32x144",
		"tensor.axpy_gb_per_s",
		"core.reduce_ms", "core.reduce_wait_ms", "core.reuse_step_ms", "core.reeval_step_ms",
		"core.local_k_ratio", "core.global_k_ratio",
		"allreduce.reduce_ms", "allreduce.reduce_wait_ms",
		"topk.threshold_ms", "topk.select_ms", "sparse.reduce_ms",
		"cluster.msgs_per_step", "cluster.words_per_step", "cluster.send_ms", "cluster.recv_wait_ms",
		"cluster.run_overhead_ms", "cluster.tcp_wire_mb_per_s", "cluster.tcp_over_inproc", "cluster.tcp_rendezvous_ms",
		"experiments.synthetic_gradients_ms", "bench.trace_overhead_frac",
	},
}

// report collects a run's results and prints them.
type report struct {
	opts     options
	def      *workloadDef
	host     host
	runners  []*runner
	metrics  []metric
	samples  map[string]int
	stepMS   []float64 // the timed steps' host times, in order
	spanFile string
	fatal    string
}

func (rep *report) add(m metric) { rep.metrics = append(rep.metrics, m) }

// finish prints the human-readable table, writes the record and prints
// the result line. It returns the exit code.
func (rep *report) finish(stdout io.Writer) int {
	attempted, failed := 0, 0
	var failures []string
	for _, rn := range rep.runners {
		a, f := rn.counts()
		attempted += a
		failed += f
		failures = append(failures, rn.failures...)
	}
	correct := failed == 0 && rep.fatal == ""
	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	want := map[string]bool{}
	for _, name := range declared[rep.opts.trace] {
		want[name] = true
	}
	for i := range rep.metrics {
		m := &rep.metrics[i]
		m.Declared = want[m.Name]
		note := m.Note
		if note != "" {
			note = ", " + note
		}
		fmt.Fprintf(stdout, "  %-40s %14.6g %-10s (n=%d, %s%s)\n", m.Name, m.Value, m.Unit, m.Samples, m.Source, note)
		if !m.Declared {
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			correct = false
			failures = append(failures, fmt.Sprintf("metric %s is %v", m.Name, m.Value))
			continue
		}
		result.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	if rep.fatal == "" {
		for _, name := range declared[rep.opts.trace] {
			if _, ok := result.Metrics[name]; !ok {
				correct = false
				failures = append(failures, "metric "+name+" was not measured")
			}
		}
	}
	result.Correct = correct
	for _, f := range failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	if rep.fatal != "" {
		fmt.Fprintln(stdout, "FAILED:", rep.fatal)
	}
	if rep.spanFile != "" {
		fmt.Fprintln(stdout, "spans:", rep.spanFile)
	}
	if path, err := rep.writeRecord(correct, attempted, failed, failures); err != nil {
		fmt.Fprintln(stdout, "record:", err)
		correct = false
		result.Correct = false
	} else {
		fmt.Fprintln(stdout, "record:", path)
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stdout, "result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct || attempted == 0 {
		return 1
	}
	return 0
}

func (rep *report) writeRecord(correct bool, attempted, failed int, failures []string) (string, error) {
	dir := filepath.Join(rep.opts.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	rec := map[string]any{
		"workload": rep.def.name, "why": rep.def.why, "seed": rep.opts.seed, "seconds": rep.opts.seconds,
		"trace": rep.opts.trace, "params": rep.def.params, "host": rep.host, "samples": rep.samples,
		"metrics": rep.metrics, "correct": correct, "attempted": attempted, "failed": failed,
		"failures": failures, "fatal": rep.fatal, "span_file": rep.spanFile, "step_ms": rep.stepMS,
		"finished": time.Now().UTC().Format(time.RFC3339),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.def.name, rep.opts.seed, rep.opts.trace))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func paramString(p map[string]any) string {
	data, err := json.Marshal(p)
	if err != nil {
		return fmt.Sprint(p)
	}
	return string(data)
}

// pinDigests records every workload's step digests at the default seed
// from a fresh set-up: a whole period for the reduce workloads, whose
// steps repeat, and pinTrainSteps steps of training.
func pinDigests(path string, stdout io.Writer) error {
	const pinTrainSteps = 400
	pf := pinFile{Seed: 1, Workloads: map[string]pinEntry{}}
	for _, def := range workloads {
		in, err := def.setup(pf.Seed)
		if err != nil {
			return err
		}
		steps, period := def.period, def.period
		if def.name == "train-vgg" {
			steps, period = pinTrainSteps, 0
		}
		var ds []uint64
		for t := 1; t <= steps; t++ {
			if err := in.step(t); err != nil {
				return fmt.Errorf("%s step %d: %w", def.name, t, err)
			}
			out, err := in.check(t)
			if err != nil {
				return err
			}
			ds = append(ds, out.digest)
		}
		if err := in.close(); err != nil {
			return err
		}
		pf.Workloads[def.name] = pinEntry{Period: period, Steps: hexDigests(ds)}
		fmt.Fprintf(stdout, "%s: %d step digests\n", def.name, len(ds))
	}
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
