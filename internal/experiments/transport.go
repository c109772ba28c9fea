package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/train"
)

// Transport selection for the experiment layer. Every figure's modeled
// quantities come from the deterministic simulation, so ordinary
// runners always use the inproc backend regardless of this setting —
// that is what keeps their stdout byte-identical. The transport only
// changes how the tcpsmoke runner executes: over real worker processes
// (tcp) or in-process (inproc). Set both before RunSpecs, never
// concurrently with one (the -transport flag on cmd/oktopk-bench).
var (
	transportKind = cluster.TransportInproc
	// tcpTrainRun launches cfg as one worker process per rank and
	// returns rank 0's summary plus the job's host wall-clock. It is
	// injected by the cmd layer (wrapping internal/worker.Launch) so
	// that experiments — and every test binary importing it — has no
	// path that re-executes itself as a worker process.
	tcpTrainRun func(cfg train.Config, iters int) (TCPTrainResult, error)
)

// TCPTrainResult is what the injected launcher reports back.
type TCPTrainResult struct {
	SimSeconds float64 // modeled training time (authoritative)
	Loss       float64 // final-iteration mean loss
	Metric     float64 // final held-out metric
	MetricName string
	Wall       time.Duration // host wall-clock, rendezvous included
}

// SetTransport selects the backend for transport-aware runners.
func SetTransport(k cluster.TransportKind) { transportKind = k }

// SetTCPTrainRunner injects the multi-process launcher used when the
// transport is tcp.
func SetTCPTrainRunner(fn func(cfg train.Config, iters int) (TCPTrainResult, error)) {
	tcpTrainRun = fn
}

// tcpSmokeIters keeps the smoke run in CI territory.
const tcpSmokeIters = 8

// tcpSmokeConfig is the fig5 Table-1 shape: VGG at P=4, density 1%,
// Ok-Topk — the configuration the acceptance smoke trains end-to-end
// over real processes.
func tcpSmokeConfig(seed int64) train.Config {
	return train.Config{
		Workload: "VGG", Algorithm: "OkTopk", P: 4, Batch: 4, Seed: seed, LR: 0.03,
		Reduce:   allreduce.Config{Density: 0.01, Tau: 16, TauPrime: 8},
		Wire:     wireMode,
		Topology: topoMode,
	}
}

// tcpSmokeSpecs is the tcpsmoke runner's single configuration.
func tcpSmokeSpecs() []Spec {
	return []Spec{{
		Runner: "tcpsmoke", Config: "VGG P=4 density=1%",
		Run: func(s Spec) Outcome {
			cfg := tcpSmokeConfig(s.Seed)
			if transportKind == cluster.TransportTCP {
				if tcpTrainRun == nil {
					panic("experiments: tcp transport selected but no launcher injected (SetTCPTrainRunner)")
				}
				res, err := tcpTrainRun(cfg, tcpSmokeIters)
				if err != nil {
					panic(err)
				}
				return Outcome{Payload: res, Metrics: []Metric{
					{"sim_seconds", res.SimSeconds},
					{"final_loss", res.Loss},
				}}
			}
			sess := train.NewSession(cfg)
			var sim float64
			var last train.IterStats
			for it := 1; it <= tcpSmokeIters; it++ {
				last = sess.RunIteration()
				sim += last.IterSeconds
			}
			return Outcome{Metrics: []Metric{
				{"sim_seconds", sim},
				{"final_loss", last.Loss},
			}}
		},
	}}
}

// renderTCPSmoke reports modeled time (identical on either backend —
// the conformance suite pins that) and, for tcp runs, the measured host
// wall-clock next to it: the first place the α-β model meets a real
// network stack.
func renderTCPSmoke(w io.Writer, rs []Result) {
	for _, r := range rs {
		if r.Err != nil {
			fmt.Fprintf(w, "%s: %v\n", r.Spec.Config, r.Err)
			continue
		}
		for _, m := range r.Outcome.Metrics {
			fmt.Fprintf(w, "%s %s = %.6g\n", r.Spec.Config, m.Name, m.Value)
		}
		if res, ok := r.Outcome.Payload.(TCPTrainResult); ok {
			// Wall-clock is host-dependent by nature; it never appears in
			// the deterministic CSV, only in this human-facing note.
			fmt.Fprintf(w, "%s ran as %s over tcp: wall-clock %.2fs for %.6gs modeled\n",
				r.Spec.Config, "4 worker processes", res.Wall.Seconds(), res.SimSeconds)
		}
	}
}
