package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/trace"
	"repro/internal/train"
)

// traceFinalIteration executes run — expected to advance the session by
// its last iteration — under a recorder when dir is non-empty (the
// Env.TraceDir the -trace flag on cmd/oktopk-bench sets), then writes
// the capture into dir. Parallel specs write distinct files: the name
// encodes workload/algorithm/P and, for weak-scaling configs, the batch
// size that separates fig12's breakdown and efficiency specs. Recording
// never touches the simulated clocks, so traced runs render
// byte-identically.
func traceFinalIteration(dir string, s *train.Session, name string, run func()) {
	if dir == "" {
		run()
		return
	}
	rec := trace.NewRecorder()
	s.Cluster.SetRecorder(rec)
	run()
	s.Cluster.SetRecorder(nil)
	writeTrace(dir, rec, s.Cfg.P, name)
}

// writeTrace renders one recording as <dir>/<name>.trace. Failures are
// reported on stderr but never fail the experiment: the trace is a side
// artifact.
func writeTrace(dir string, rec *trace.Recorder, p int, name string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		return
	}
	san := strings.NewReplacer(" ", "_", "%", "", "=", "-", "/", "-").Replace(name)
	f, err := os.Create(filepath.Join(dir, san+".trace"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "message trace: %s (final iteration, %d events)\n\n", name, rec.Len())
	rec.WriteSummary(f, p)
	fmt.Fprintln(f)
	rec.WriteTimeline(f, 4000)
}
