package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestExperimentIDsComplete: every table and figure of the paper has a
// registered runner.
func TestExperimentIDsComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig4", "fig5", "fig6", "fillin",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "ovlp",
		"topo", "tcpsmoke"}
	got := map[string]bool{}
	for _, r := range experiments.Registry() {
		got[r.ID] = true
		if r.Desc == "" || r.Specs == nil || r.Render == nil {
			t.Errorf("runner %q incomplete", r.ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
	if len(got) != len(want) {
		t.Errorf("unexpected experiment count %d, want %d", len(got), len(want))
	}
}

// TestFullFlagChangesScale: -full must select the paper's cluster sizes
// while keeping the same runner set.
func TestFullFlagChangesScale(t *testing.T) {
	quick, fullSc := experiments.QuickScale(), experiments.FullScale()
	if quick.Table1Ps[len(quick.Table1Ps)-1] >= fullSc.Table1Ps[len(fullSc.Table1Ps)-1] {
		t.Errorf("full scale should use larger clusters: %v vs %v", quick.Table1Ps, fullSc.Table1Ps)
	}
	if quick.ConvIters >= fullSc.ConvIters {
		t.Errorf("full scale should train longer: %d vs %d", quick.ConvIters, fullSc.ConvIters)
	}
	for _, r := range experiments.Registry() {
		if len(r.Specs(experiments.Env{Scale: quick})) == 0 || len(r.Specs(experiments.Env{Scale: fullSc})) == 0 {
			t.Errorf("runner %q expands to no specs", r.ID)
		}
	}
}

// TestTable2Runs executes the cheapest runner end to end through the
// scheduler and renders its report.
func TestTable2Runs(t *testing.T) {
	r, ok := experiments.FindRunner("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	results := experiments.RunSpecs(r.Specs(experiments.Env{Scale: experiments.QuickScale()}), 2)
	var buf bytes.Buffer
	r.Render(&buf, results)
	if !strings.Contains(buf.String(), "VGG-16") {
		t.Errorf("table2 output missing model rows:\n%s", buf.String())
	}
}
