package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/train"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	name       string
	pid        int   // the workload section
	id, parent int64 // parent 0: none
	step       int
	rank       int // -1: the goroutine issuing the steps
	start, end int64
}

// tracer keeps the spans of a traced run in memory until it ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	spans  []span   // spans of the ended sections
	pids   []string // section names, pid = index+1
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) newID() int64 { return tr.nextID.Add(1) }

// section groups the spans of one workload's traced window. The step
// loop sets step and detail between steps, before any rank goroutine of the
// step starts, so ranks read them without synchronization of their own.
type section struct {
	tr     *tracer
	pid    int
	ranks  []*rankLog
	steps  []span // the step spans
	step   int
	stepID int64
	// detail makes the cluster-call decorators record a span per call;
	// otherwise they only add to their counters.
	detail bool
	// overhead is the last step's Cluster.Run overhead in ns (see
	// stepOut.overhead).
	overhead int64
}

func (tr *tracer) begin(name string, ranks int) *section {
	tr.pids = append(tr.pids, name)
	s := &section{tr: tr, pid: len(tr.pids)}
	for r := 0; r < ranks; r++ {
		s.ranks = append(s.ranks, &rankLog{sec: s, rank: r})
	}
	return s
}

// end folds the section's spans into the tracer.
func (s *section) end() {
	n := len(s.tr.spans)
	s.tr.spans = append(s.tr.spans, s.steps...)
	for _, rl := range s.ranks {
		s.tr.spans = append(s.tr.spans, rl.spans...)
	}
	for i := n; i < len(s.tr.spans); i++ {
		s.tr.spans[i].pid = s.pid
	}
}

// openStep allocates the span of step t; its children (rank
// spans) reference the id before the step span itself is closed.
func (s *section) openStep(t int, detail bool) int64 {
	s.step, s.detail = t, detail
	s.stepID = s.tr.newID()
	return s.tr.now()
}

func (s *section) closeStep(start int64) span {
	sp := span{name: "step", id: s.stepID, step: s.step, rank: -1, start: start, end: s.tr.now()}
	s.steps = append(s.steps, sp)
	return sp
}

// rankLog is one rank's span buffer and counters. Only that rank's
// goroutine of the current step touches it, and steps are sequential.
type rankLog struct {
	sec   *section
	rank  int
	spans []span
	// cur is the innermost open span of this rank (0: none), which
	// the spans opened next nest under.
	cur int64

	sendNs, recvNs, barrierNs int64
	localK, globalK, reduces  int64
}

func (rl *rankLog) open() (int64, int64) { return rl.sec.tr.newID(), rl.sec.tr.now() }

func (rl *rankLog) close(name string, id, parent, start int64) {
	rl.spans = append(rl.spans, span{name: name, id: id, parent: parent,
		step: rl.sec.step, rank: rl.rank, start: start, end: rl.sec.tr.now()})
}

// clusterCall accounts one call into the cluster layer that started at
// start and spent excluded ns in caller code (receive callbacks).
func (rl *rankLog) clusterCall(name string, acc *int64, start, excluded int64) {
	end := rl.sec.tr.now()
	*acc += end - start - excluded
	if rl.sec.detail {
		rl.spans = append(rl.spans, span{name: name, id: rl.sec.tr.newID(), parent: rl.cur,
			step: rl.sec.step, rank: rl.rank, start: start, end: end})
	}
}

// tracedEndpoint times every send, receive and barrier of the Endpoint
// handed to a Reduce and delegates the call.
type tracedEndpoint struct {
	cluster.Endpoint
	rl *rankLog
}

func (e *tracedEndpoint) Send(dst, tag int, data any, words int) {
	t := e.rl.sec.tr.now()
	e.Endpoint.Send(dst, tag, data, words)
	e.rl.clusterCall("cluster.send", &e.rl.sendNs, t, 0)
}

func (e *tracedEndpoint) SendFloats(dst, tag int, x []float64, words int) {
	t := e.rl.sec.tr.now()
	e.Endpoint.SendFloats(dst, tag, x, words)
	e.rl.clusterCall("cluster.send", &e.rl.sendNs, t, 0)
}

func (e *tracedEndpoint) SendFloat32s(dst, tag int, x []float32, words int) {
	t := e.rl.sec.tr.now()
	e.Endpoint.SendFloat32s(dst, tag, x, words)
	e.rl.clusterCall("cluster.send", &e.rl.sendNs, t, 0)
}

func (e *tracedEndpoint) SendChunk(dst, tag int, ch cluster.Chunk, words int) {
	t := e.rl.sec.tr.now()
	e.Endpoint.SendChunk(dst, tag, ch, words)
	e.rl.clusterCall("cluster.send", &e.rl.sendNs, t, 0)
}

func (e *tracedEndpoint) SendChunks(dst, tag int, chs []cluster.Chunk, words int) {
	t := e.rl.sec.tr.now()
	e.Endpoint.SendChunks(dst, tag, chs, words)
	e.rl.clusterCall("cluster.send", &e.rl.sendNs, t, 0)
}

func (e *tracedEndpoint) Recv(src, tag int) any {
	t := e.rl.sec.tr.now()
	v := e.Endpoint.Recv(src, tag)
	e.rl.clusterCall("cluster.recv", &e.rl.recvNs, t, 0)
	return v
}

func (e *tracedEndpoint) RecvFloat64(src, tag int) []float64 {
	t := e.rl.sec.tr.now()
	v := e.Endpoint.RecvFloat64(src, tag)
	e.rl.clusterCall("cluster.recv", &e.rl.recvNs, t, 0)
	return v
}

func (e *tracedEndpoint) RecvFloat32(src, tag int) []float32 {
	t := e.rl.sec.tr.now()
	v := e.Endpoint.RecvFloat32(src, tag)
	e.rl.clusterCall("cluster.recv", &e.rl.recvNs, t, 0)
	return v
}

func (e *tracedEndpoint) RecvChunk(src, tag int) cluster.Chunk {
	t := e.rl.sec.tr.now()
	v := e.Endpoint.RecvChunk(src, tag)
	e.rl.clusterCall("cluster.recv", &e.rl.recvNs, t, 0)
	return v
}

func (e *tracedEndpoint) RecvChunks(src, tag int) []cluster.Chunk {
	t := e.rl.sec.tr.now()
	v := e.Endpoint.RecvChunks(src, tag)
	e.rl.clusterCall("cluster.recv", &e.rl.recvNs, t, 0)
	return v
}

// RecvChunkEach runs the caller's callback inside the receive; the time
// spent in it is the algorithm's work, not waiting, so it is excluded.
func (e *tracedEndpoint) RecvChunkEach(keys []cluster.RecvKey, fn func(i int, ch cluster.Chunk)) {
	tr := e.rl.sec.tr
	var inFn int64
	t := tr.now()
	e.Endpoint.RecvChunkEach(keys, func(i int, ch cluster.Chunk) {
		s := tr.now()
		fn(i, ch)
		inFn += tr.now() - s
	})
	e.rl.clusterCall("cluster.recv", &e.rl.recvNs, t, inFn)
}

func (e *tracedEndpoint) Barrier() {
	t := e.rl.sec.tr.now()
	e.Endpoint.Barrier()
	e.rl.clusterCall("cluster.barrier", &e.rl.barrierNs, t, 0)
}

// tracedAlgo times each Reduce, hands the algorithm a tracedEndpoint and
// counts the selection sizes it reports. It must not wrap an
// allreduce.Overlapped algorithm: the trainer type-asserts that
// interface, and the decorator would hide it.
type tracedAlgo struct {
	allreduce.Algorithm
	rl   *rankLog
	name string // span name: "<layer>.reduce"
	ep   tracedEndpoint
}

func (a *tracedAlgo) Reduce(cm cluster.Endpoint, acc []float64, t int) allreduce.Result {
	a.ep.Endpoint, a.ep.rl = cm, a.rl
	id, start := a.rl.open()
	prev := a.rl.cur
	parent := prev
	if parent == 0 {
		parent = a.rl.sec.stepID
	}
	a.rl.cur = id
	res := a.Algorithm.Reduce(&a.ep, acc, t)
	a.rl.cur = prev
	a.rl.close(a.name, id, parent, start)
	a.rl.localK += int64(res.LocalK)
	a.rl.globalK += int64(res.GlobalK)
	a.rl.reduces++
	return res
}

// tracedWorkload times each forward/backward pass of a training replica.
type tracedWorkload struct {
	train.Workload
	rl *rankLog
}

func (w *tracedWorkload) ComputeBatch(r *rand.Rand, batch int) (float64, int, int) {
	id, start := w.rl.open()
	loss, correct, total := w.Workload.ComputeBatch(r, batch)
	w.rl.close("nn.compute_batch", id, w.rl.sec.stepID, start)
	return loss, correct, total
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, one process per workload section, one thread per rank
// plus thread 0 for the step loop), which Perfetto and chrome://tracing
// open.
func (tr *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			w.WriteString(",\n")
		}
		first = false
	}
	for i, name := range tr.pids {
		sep()
		fmt.Fprintf(w, `{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%q}}`, i+1, name)
	}
	threads := map[[2]int]bool{}
	for _, sp := range tr.spans {
		pid := sp.pid
		tid := sp.rank + 1
		if !threads[[2]int{pid, tid}] {
			threads[[2]int{pid, tid}] = true
			tname := "steps"
			if sp.rank >= 0 {
				tname = "rank " + strconv.Itoa(sp.rank)
			}
			sep()
			fmt.Fprintf(w, `{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%q}}`, pid, tid, tname)
		}
		sep()
		fmt.Fprintf(w, `{"ph":"X","name":%q,"pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"step":%d,"rank":%d}}`,
			sp.name, pid, tid, float64(sp.start)/1e3, float64(sp.end-sp.start)/1e3,
			sp.id, sp.parent, sp.step, sp.rank)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
