package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunSpecsOrdering: results come back in spec order regardless of
// completion order.
func TestRunSpecsOrdering(t *testing.T) {
	var specs []Spec
	for i := 0; i < 16; i++ {
		i := i
		specs = append(specs, Spec{
			Runner: "order", Config: fmt.Sprintf("c%d", i),
			Run: func(Spec) Outcome {
				// Early specs sleep longest, so completion order reverses
				// submission order under parallelism.
				time.Sleep(time.Duration(16-i) * time.Millisecond)
				return Outcome{Metrics: []Metric{{"i", float64(i)}}}
			},
		})
	}
	rs := RunSpecs(specs, 8)
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("spec %d failed: %v", i, r.Err)
		}
		if got := r.Outcome.Metrics[0].Value; got != float64(i) {
			t.Errorf("result %d holds outcome of spec %.0f", i, got)
		}
		if r.Spec.Config != fmt.Sprintf("c%d", i) {
			t.Errorf("result %d spec mismatch: %q", i, r.Spec.Config)
		}
	}
}

// TestRunSpecsBoundedConcurrency: at most `parallel` specs execute at
// once, and all of them run.
func TestRunSpecsBoundedConcurrency(t *testing.T) {
	const parallel = 3
	var cur, peak, total atomic.Int64
	var mu sync.Mutex
	var specs []Spec
	for i := 0; i < 20; i++ {
		specs = append(specs, Spec{
			Runner: "bound", Config: fmt.Sprintf("c%d", i),
			Run: func(Spec) Outcome {
				n := cur.Add(1)
				mu.Lock()
				if n > peak.Load() {
					peak.Store(n)
				}
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
				total.Add(1)
				return Outcome{}
			},
		})
	}
	RunSpecs(specs, parallel)
	if total.Load() != 20 {
		t.Fatalf("ran %d of 20 specs", total.Load())
	}
	if peak.Load() > parallel {
		t.Errorf("observed %d concurrent specs, limit %d", peak.Load(), parallel)
	}
	if peak.Load() < 2 {
		t.Errorf("no concurrency observed (peak %d)", peak.Load())
	}
}

// TestRunSpecsCapturesPanic: a panicking spec lands in its own
// Result.Err without disturbing its neighbours.
func TestRunSpecsCapturesPanic(t *testing.T) {
	specs := []Spec{
		{Runner: "p", Config: "ok1", Run: func(Spec) Outcome { return Outcome{Metrics: []Metric{{"v", 1}}} }},
		{Runner: "p", Config: "boom", Run: func(Spec) Outcome { panic("kaput") }},
		{Runner: "p", Config: "ok2", Run: func(Spec) Outcome { return Outcome{Metrics: []Metric{{"v", 2}}} }},
	}
	rs := RunSpecs(specs, 2)
	if rs[0].Err != nil || rs[2].Err != nil {
		t.Fatalf("healthy specs failed: %v %v", rs[0].Err, rs[2].Err)
	}
	if rs[1].Err == nil || !strings.Contains(rs[1].Err.Error(), "kaput") {
		t.Fatalf("panic not captured: %v", rs[1].Err)
	}
}

// TestRunSpecsDeterministicSeeds: derived seeds depend only on the
// configuration name, never on schedule or worker count.
func TestRunSpecsDeterministicSeeds(t *testing.T) {
	mkSpecs := func() []Spec {
		var specs []Spec
		for i := 0; i < 8; i++ {
			specs = append(specs, Spec{
				Runner: "seeds", Config: fmt.Sprintf("c%d", i),
				Run: func(s Spec) Outcome {
					return Outcome{Metrics: []Metric{{"seed", float64(s.Seed)}}}
				},
			})
		}
		return specs
	}
	serial := RunSpecs(mkSpecs(), 1)
	par := RunSpecs(mkSpecs(), 8)
	for i := range serial {
		if serial[i].Outcome.Metrics[0].Value != par[i].Outcome.Metrics[0].Value {
			t.Errorf("config %d seed differs between serial and parallel", i)
		}
		if serial[i].Outcome.Metrics[0].Value == 0 {
			t.Errorf("config %d seed not derived", i)
		}
	}
	if SeedFor("a", "b") == SeedFor("ab") || SeedFor("a", "b") == SeedFor("a", "c") {
		t.Error("SeedFor collides on distinct part lists")
	}
}

// TestParallelRenderingByteIdentical: a real multi-config runner (the
// Table 1 volume grid) renders byte-identically from a serial and a
// parallel schedule, and so do the CSV/markdown emitters.
func TestParallelRenderingByteIdentical(t *testing.T) {
	run := func(parallel int) (string, string, string) {
		rs := RunSpecs(table1Specs(Env{Scale: Scale{Table1Ps: []int{2, 4, 8}, Table1N: 20000, Table1K: 200}}), parallel)
		var render, csv, md bytes.Buffer
		renderTable1(&render, rs)
		if err := WriteCSV(&csv, rs); err != nil {
			t.Fatal(err)
		}
		if err := WriteMarkdown(&md, rs); err != nil {
			t.Fatal(err)
		}
		return render.String(), csv.String(), md.String()
	}
	r1, c1, m1 := run(1)
	r4, c4, m4 := run(4)
	if r1 != r4 {
		t.Errorf("rendered output differs:\nserial:\n%s\nparallel:\n%s", r1, r4)
	}
	if c1 != c4 {
		t.Errorf("CSV differs:\nserial:\n%s\nparallel:\n%s", c1, c4)
	}
	if m1 != m4 {
		t.Errorf("markdown differs:\nserial:\n%s\nparallel:\n%s", m1, m4)
	}
	if !strings.Contains(c1, "table1,") || !strings.Contains(c1, "OkTopk/mean_words") {
		t.Errorf("CSV missing expected rows:\n%s", c1)
	}
	if !strings.Contains(m1, "## table1") {
		t.Errorf("markdown missing runner section:\n%s", m1)
	}
}

// TestWriteCSVQuoting: fields containing delimiters are quoted.
func TestWriteCSVQuoting(t *testing.T) {
	rs := []Result{{
		Spec:    Spec{Runner: "r", Config: `a,b"c`},
		Outcome: Outcome{Metrics: []Metric{{"m", 1.5}}},
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	want := "r,\"a,b\"\"c\",m,1.5\n"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("CSV quoting wrong:\n%s", buf.String())
	}
}

// TestRegistryCoversSpecs: every registered runner expands into specs
// whose Runner field matches its id — the invariant DESIGN.md and the
// emitters group by.
func TestRegistryCoversSpecs(t *testing.T) {
	env := Env{Scale: QuickScale()}
	for _, r := range Registry() {
		specs := r.Specs(env)
		if len(specs) == 0 {
			t.Errorf("runner %q has no specs", r.ID)
		}
		seen := map[string]bool{}
		for _, s := range specs {
			if s.Runner != r.ID {
				t.Errorf("runner %q spec labeled %q", r.ID, s.Runner)
			}
			if seen[s.Config] {
				t.Errorf("runner %q duplicate config %q", r.ID, s.Config)
			}
			seen[s.Config] = true
			if s.Run == nil {
				t.Errorf("runner %q config %q has no Run", r.ID, s.Config)
			}
		}
	}
}
