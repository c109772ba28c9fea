package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/allreduce"
	"repro/internal/train"
)

// TCPTrainResult is what the Env.TCPTrain launcher reports back.
type TCPTrainResult struct {
	SimSeconds float64 // modeled training time (authoritative)
	Loss       float64 // final-iteration mean loss
	Metric     float64 // final held-out metric
	MetricName string
	Wall       time.Duration // host wall-clock, rendezvous included
}

// tcpSmokeIters keeps the smoke run in CI territory.
const tcpSmokeIters = 8

// tcpSmokeSpecs is the tcpsmoke runner's single configuration. Every
// figure's modeled quantities come from the deterministic simulation,
// so ordinary runners always train in process — that is what keeps
// their stdout byte-identical. Only this runner looks at Env.TCPTrain:
// with a launcher it trains over real worker processes, without one in
// process.
func tcpSmokeSpecs(env Env) []Spec {
	return []Spec{{
		Runner: "tcpsmoke", Config: "VGG P=4 density=1%",
		Run: func(s Spec) Outcome {
			// The fig5 Table-1 shape: VGG at P=4, density 1%, Ok-Topk.
			cfg := env.config(train.Config{
				Workload: "VGG", Algorithm: "OkTopk", P: 4, Batch: 4, Seed: s.Seed, LR: 0.03,
				Reduce: allreduce.Config{Density: 0.01, Tau: 16, TauPrime: 8},
			})
			if env.TCPTrain != nil {
				res, err := env.TCPTrain(cfg, tcpSmokeIters)
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
