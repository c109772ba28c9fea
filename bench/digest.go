package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// pinnedJSON holds the step digests of every workload at the default
// seed. Regenerate it with -pin after a change that is meant to alter
// the program's outputs (and only then).
//
//go:embed digests.json
var pinnedJSON []byte

// pinFile is the format of digests.json.
type pinFile struct {
	// Seed is the workload seed the digests were recorded at; runs at
	// any other seed skip the pinned check.
	Seed      int64               `json:"seed"`
	Workloads map[string]pinEntry `json:"workloads"`
}

// pinEntry lists one workload's step digests (16 hex digits each).
// With Period > 0 the workload's steps repeat with that period and step
// t is checked against Steps[(t-1)%Period]; with Period 0, step t is
// checked against Steps[t-1] and steps beyond the list are unpinned.
type pinEntry struct {
	Period int      `json:"period"`
	Steps  []string `json:"steps"`
}

// pinned is the decoded check for one run.
type pinned struct {
	period int
	steps  []uint64
}

func loadPins() (pinFile, error) {
	var pf pinFile
	if err := json.Unmarshal(pinnedJSON, &pf); err != nil {
		return pinFile{}, fmt.Errorf("digests: %w", err)
	}
	return pf, nil
}

// forRun returns the pinned check for workload at seed, or nil when the
// file pins nothing for that pair.
func (pf pinFile) forRun(workload string, seed int64) (*pinned, error) {
	e, ok := pf.Workloads[workload]
	if !ok || seed != pf.Seed {
		return nil, nil
	}
	p := &pinned{period: e.Period}
	for _, s := range e.Steps {
		v, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("digests: %s: %w", workload, err)
		}
		p.steps = append(p.steps, v)
	}
	return p, nil
}

// check compares step t's digest with the pinned one. It reports
// whether the step was pinned at all.
func (p *pinned) check(t int, got uint64) (bool, error) {
	if p == nil || len(p.steps) == 0 {
		return false, nil
	}
	i := t - 1
	if p.period > 0 {
		i %= p.period
	}
	if i >= len(p.steps) {
		return false, nil
	}
	if want := p.steps[i]; got != want {
		return true, fmt.Errorf("step %d: digest %016x, pinned %016x", t, got, want)
	}
	return true, nil
}

func hexDigests(ds []uint64) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%016x", d)
	}
	return out
}
