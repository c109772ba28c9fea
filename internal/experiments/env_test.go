package experiments

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
)

// TestFigure7FollowsTopology: fig7 builds its measurement clusters under
// the environment's topology, so a fattree Env reprices the same
// schedule that a flat Env measures.
func TestFigure7FollowsTopology(t *testing.T) {
	fattree, err := netmodel.BuildTopology("fattree", 4, 0, SeedFor("topology", "fattree"))
	if err != nil {
		t.Fatal(err)
	}
	const p, n, k = 8, 4000, 40
	skewed := SyntheticGradients(91, p, n, k, 0.9)
	schedule := [][][]float64{skewed, skewed}
	flat := figure7Makespan(Env{}, schedule, k, 2, true, true)
	tree := figure7Makespan(Env{Topology: fattree}, schedule, k, 2, true, true)
	if math.Float64bits(flat) == math.Float64bits(tree) {
		t.Fatalf("fig7 makespan %v is identical on the flat and fattree topologies", flat)
	}
}

// TestRunSpecsTwoEnvs: the package holds no run state outside Env. Specs
// of two environments (f64 on the flat network, f32 on a fattree)
// interleaved in one RunSpecs call render exactly as each environment
// run alone.
func TestRunSpecsTwoEnvs(t *testing.T) {
	fattree, err := netmodel.BuildTopology("fattree", 4, 0, SeedFor("topology", "fattree"))
	if err != nil {
		t.Fatal(err)
	}
	small := Scale{
		Table1Ps: []int{4, 8}, Table1N: 20000, Table1K: 200,
		Fig7Ps: []int{8, 16}, Fig7N: 20000, Fig7Density: 0.01,
	}
	flat64 := Env{Scale: small}
	tree32 := Env{Scale: small, Wire: cluster.WireF32, Topology: fattree}
	table1, _ := FindRunner("table1")
	fig7, _ := FindRunner("fig7")
	render := func(r Runner, rs []Result) string {
		var buf bytes.Buffer
		r.Render(&buf, rs)
		return buf.String()
	}
	wantTable1 := render(table1, RunSpecs(table1.Specs(flat64), 2))
	wantFig7 := render(fig7, RunSpecs(fig7.Specs(tree32), 2))
	if render(fig7, RunSpecs(fig7.Specs(flat64), 2)) == wantFig7 {
		t.Fatal("fig7 renders identically under both environments; the test cannot tell them apart")
	}

	a, b := table1.Specs(flat64), fig7.Specs(tree32)
	var mixed []Spec
	for i := 0; i < len(a) || i < len(b); i++ {
		if i < len(a) {
			mixed = append(mixed, a[i])
		}
		if i < len(b) {
			mixed = append(mixed, b[i])
		}
	}
	var gotA, gotB []Result
	for _, r := range RunSpecs(mixed, 4) {
		if r.Spec.Runner == "table1" {
			gotA = append(gotA, r)
		} else {
			gotB = append(gotB, r)
		}
	}
	if got := render(table1, gotA); got != wantTable1 {
		t.Errorf("f64/flat table1 differs when interleaved:\nalone:\n%s\nmixed:\n%s", wantTable1, got)
	}
	if got := render(fig7, gotB); got != wantFig7 {
		t.Errorf("f32/fattree fig7 differs when interleaved:\nalone:\n%s\nmixed:\n%s", wantFig7, got)
	}
}
