package netmodel

import (
	"math"
	"testing"
)

func topoParams(t Topology) Params {
	p := PizDaint()
	p.Topo = t
	return p
}

// hierTopo is a 4-rank-per-node hierarchy with cheap intra links and
// full rail sharing — the shape of the fattree/nvlink presets.
func hierTopo() Topology {
	return Topology{NodeSize: 4, IntraAlphaFrac: 0.25, IntraBetaFrac: 0.25, Share: 1}
}

// TestFlatDelegation: with no hierarchy configured, the stamps must be
// the classic flat α-β arithmetic — bit-identical, not approximately —
// because that is what pins default output to the pre-topology goldens:
//
//	depart    = max(cpu, sendFree)
//	sendFree' = depart + w·β
//	done      = max(depart+α, recvFree) + w·β
//
// Peer identity must not matter, straggler-only topologies (noisy but
// not hierarchical) and a rail-sharing factor without nodes must not
// change a stamp, and a flat clock must never record the inter-node
// backlog.
func TestFlatDelegation(t *testing.T) {
	for _, topo := range []Topology{
		{},
		{StragglerFrac: 0.25, StragglerSlow: 3, Jitter: 0.2, Seed: 99},
		{Share: 1},
	} {
		p := topoParams(topo)
		c := NewRankClock(p, 2)
		c.SetRailUsers(4)
		var cpu, sendFree, recvFree float64
		send := func(dst, w int) {
			t.Helper()
			want := max(cpu, sendFree)
			sendFree = want + float64(float64(w)*p.Beta)
			cpu = want
			if got := c.StampSendTo(dst, w); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("topo %+v: send %d words to %d departs %v, want %v", topo, w, dst, got, want)
			}
		}
		recv := func(src int, depart float64, w int) {
			t.Helper()
			recvFree = max(depart+p.Alpha, recvFree) + float64(float64(w)*p.Beta)
			cpu = max(cpu, recvFree)
			c.StampRecvFrom(src, depart, w)
			if math.Float64bits(c.Now()) != math.Float64bits(cpu) {
				t.Fatalf("topo %+v: recv %d words from %d done at %v, want %v", topo, w, src, c.Now(), cpu)
			}
		}
		// An irregular sequence: each send is followed by a receive of a
		// message that departed somewhere around it, from varying peers.
		words := []int{1, 1000, 7, 250000, 3}
		for i, w := range words {
			send(i, w)
			recv(i+3, cpu-float64(i)*1e-6, w)
		}
		// A burst of back-to-back sends, all still streaming.
		for i := 0; i < 8; i++ {
			send(7, 100000)
		}
		st := c.State()
		if math.Float64bits(st.SendFree) != math.Float64bits(sendFree) ||
			math.Float64bits(st.RecvFree) != math.Float64bits(recvFree) {
			t.Fatalf("topo %+v: NIC state %v/%v, want %v/%v", topo, st.SendFree, st.RecvFree, sendFree, recvFree)
		}
		if st.OutSends != nil {
			t.Fatalf("topo %+v: flat clock recorded a backlog %v", topo, st.OutSends)
		}
		if n := testing.AllocsPerRun(10, c.Reset); n != 0 {
			t.Fatalf("topo %+v: Reset allocated %v times", topo, n)
		}
	}
}

// TestContentionMonotone: more declared rail sharers never make an
// inter-node transfer faster — the sharing model must be monotone or
// collectives could game it by over-declaring.
func TestContentionMonotone(t *testing.T) {
	topo := hierTopo()
	done := func(railUsers int) float64 {
		c := NewRankClock(topoParams(topo), 0)
		c.SetRailUsers(railUsers)
		depart := c.StampSendTo(7, 100000) // rank 0 -> node 1: inter-node
		r := NewRankClock(topoParams(topo), 7)
		r.SetRailUsers(railUsers)
		r.StampRecvFrom(0, depart, 100000)
		return r.Now()
	}
	prev := done(1)
	for k := 2; k <= 8; k++ {
		cur := done(k)
		if cur < prev {
			t.Fatalf("railUsers=%d completes at %v, faster than railUsers=%d at %v", k, cur, k-1, prev)
		}
		if cur <= prev && topo.Share > 0 {
			t.Fatalf("railUsers=%d completes at %v, not slower than %d sharers (%v)", k, cur, k-1, prev)
		}
		prev = cur
	}
}

// TestBacklogContention: an inter-node send posted while the rank's own
// earlier inter-node transfers are still streaming pays the dynamic
// backlog term; once the backlog drains (CPU moves past the completion
// times), the same send is cheap again.
func TestBacklogContention(t *testing.T) {
	topo := hierTopo()
	serialized := func(idle float64) float64 {
		c := NewRankClock(topoParams(topo), 0)
		c.SetRailUsers(1) // isolate the backlog term
		c.StampSendTo(7, 100000)
		if idle > 0 {
			c.Sleep(idle)
		}
		before := c.Snapshot()
		c.StampSendTo(7, 100000)
		_ = before
		// sendFree - cpu is the streaming time the second transfer was
		// priced at.
		return c.sendFree - c.Now()
	}
	burst := serialized(0)
	drained := serialized(10) // seconds; far beyond the first transfer
	if burst <= drained {
		t.Fatalf("burst-priced transfer (%v) should stream slower than drained (%v)", burst, drained)
	}
	base := 100000 * PizDaint().Beta
	if math.Abs(drained-base) > 1e-15 {
		t.Fatalf("drained transfer streams at %v, want flat %v", drained, base)
	}
}

// TestIntraCheaperThanInter: with discount fractions < 1, a node-local
// transfer must complete earlier than the same transfer across nodes.
func TestIntraCheaperThanInter(t *testing.T) {
	topo := hierTopo()
	transfer := func(src, dst int) float64 {
		s := NewRankClock(topoParams(topo), src)
		depart := s.StampSendTo(dst, 50000)
		r := NewRankClock(topoParams(topo), dst)
		r.StampRecvFrom(src, depart, 50000)
		return r.Now()
	}
	intra := transfer(0, 1) // same node (NodeSize 4)
	inter := transfer(0, 5) // node 0 -> node 1
	if intra >= inter {
		t.Fatalf("intra-node transfer (%v) not cheaper than inter-node (%v)", intra, inter)
	}
}

// TestStragglerDeterminismAndDistinctness: straggler designation and
// jitter are pure functions of (seed, rank, step) — two clocks with the
// same position replay bit-identical times; distinct seeds yield
// distinct jitter somewhere in a small window.
func TestStragglerDeterminismAndDistinctness(t *testing.T) {
	topo := Topology{StragglerFrac: 0.5, StragglerSlow: 4, Jitter: 0.3, Seed: 1234}
	run := func(seed int64, rank int) float64 {
		tt := topo
		tt.Seed = seed
		c := NewRankClock(topoParams(tt), rank)
		for step := 1; step <= 5; step++ {
			c.SetStep(step)
			c.Compute(1e9)
			c.Sleep(1e-3)
		}
		return c.Now()
	}
	for rank := 0; rank < 8; rank++ {
		a, b := run(1234, rank), run(1234, rank)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("rank %d: identical seeds diverged: %v vs %v", rank, a, b)
		}
	}
	distinct := false
	for rank := 0; rank < 8 && !distinct; rank++ {
		distinct = math.Float64bits(run(1234, rank)) != math.Float64bits(run(4321, rank))
	}
	if !distinct {
		t.Fatal("seeds 1234 and 4321 produced identical noise on all of 8 ranks")
	}
	// Jitter must vary by step too, not just by rank.
	u1, u2 := topo.JitterU(3, 1), topo.JitterU(3, 2)
	if u1 == u2 {
		t.Fatal("jitter identical across steps")
	}
}

// TestStragglerFraction: over many ranks the designated fraction tracks
// StragglerFrac (the hash behaves uniformly).
func TestStragglerFraction(t *testing.T) {
	topo := Topology{StragglerFrac: 0.125, StragglerSlow: 2, Seed: 7}
	n, count := 10000, 0
	for r := 0; r < n; r++ {
		if topo.IsStraggler(r) {
			count++
		}
	}
	got := float64(count) / float64(n)
	if got < 0.10 || got > 0.15 {
		t.Fatalf("straggler fraction %v, want ≈0.125", got)
	}
}

// TestSlowdownNeverSpeedsUp: straggler and jitter injection can only
// delay a rank. For every (rank, step), a clock under a noisy topology
// charges at least the unslowed time for the same compute and sleep,
// and some rank is actually slowed.
func TestSlowdownNeverSpeedsUp(t *testing.T) {
	noisy := topoParams(Topology{StragglerFrac: 0.5, StragglerSlow: 3, Jitter: 0.25, Seed: 11})
	slowed := false
	for rank := 0; rank < 16; rank++ {
		for step := 0; step < 16; step++ {
			charge := func(p Params) float64 {
				c := NewRankClock(p, rank)
				c.SetStep(step)
				c.Compute(1e9)
				c.Sleep(1e-3)
				return c.Now()
			}
			got, base := charge(noisy), charge(PizDaint())
			if got < base {
				t.Fatalf("rank %d step %d: charged %v, unslowed %v", rank, step, got, base)
			}
			slowed = slowed || got > base
		}
	}
	if !slowed {
		t.Fatal("no rank was slowed: the topology injected nothing")
	}
}

// TestClockStateTopologyRoundTrip: capturing and restoring a clock with
// live topology state (declared rail users, in-flight inter-node
// backlog, jitter step) must reproduce the continued run bit-for-bit —
// the checkpoint/recovery invariant extended to the topology fields.
func TestClockStateTopologyRoundTrip(t *testing.T) {
	topo := hierTopo()
	topo.StragglerFrac = 0.5
	topo.StragglerSlow = 2
	topo.Jitter = 0.2
	topo.Seed = 42
	p := topoParams(topo)

	prefix := func(c *Clock) {
		c.SetStep(3)
		c.SetRailUsers(2)
		c.StampSendTo(7, 100000) // leaves an in-flight inter-node transfer
		c.Compute(1e8)
	}
	suffix := func(c *Clock) float64 {
		c.StampSendTo(7, 100000) // priced against the restored backlog
		c.Compute(1e8)           // jittered at the restored step
		c.StampRecvFrom(5, c.Now(), 500)
		return c.Now()
	}

	cont := NewRankClock(p, 1)
	prefix(cont)
	want := suffix(cont)

	orig := NewRankClock(p, 1)
	prefix(orig)
	state := orig.State()
	// The captured state must be a snapshot, not an alias.
	if len(state.OutSends) == 0 {
		t.Fatal("in-flight inter-node transfer not captured")
	}
	state.OutSends[0] += 0 // touch to assert usability
	restored := NewRankClock(p, 1)
	restored.SetState(state)
	got := suffix(restored)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("restored clock diverged: %v (%016x) vs continuous %v (%016x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	// Mutating the state after restore must not reach into the clock.
	gotSends := restored.State()
	if len(gotSends.OutSends) > 0 {
		gotSends.OutSends[0] = -1
		if restored.State().OutSends[0] == -1 {
			t.Fatal("State() aliases the clock's backlog slice")
		}
	}
}

// TestBuildTopologyValidation: presets resolve, and the error paths
// reject what the CLI must not accept.
func TestBuildTopologyValidation(t *testing.T) {
	for _, preset := range []string{"", "flat", "fattree", "nvlink"} {
		if _, err := BuildTopology(preset, 0, 0, 1); err != nil {
			t.Fatalf("preset %s: %v", preset, err)
		}
	}
	ft, err := BuildTopology("fattree", 8, 2.0, 77)
	if err != nil {
		t.Fatal(err)
	}
	if ft.NodeSize != 8 || ft.StragglerSlow != 3 || ft.Seed != 77 {
		t.Fatalf("fattree overrides not applied: %+v", ft)
	}
	if !ft.Active() {
		t.Fatal("configured topology reports inactive")
	}
	if _, err := BuildTopology("torus", 0, 0, 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := BuildTopology("flat", 4, 0, 1); err == nil {
		t.Fatal("flat with node size accepted")
	}
	if _, err := BuildTopology("fattree", 0, -1, 1); err == nil {
		t.Fatal("negative straggler severity accepted")
	}
	flat, err := BuildTopology("flat", 0, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Active() {
		t.Fatalf("flat preset must be inactive, got %+v", flat)
	}
}
