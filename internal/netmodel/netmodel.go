// Package netmodel implements the latency–bandwidth (α-β) cost model the
// paper uses for all of its algorithm analysis (Table 1), extended with
// LogGP-style per-endpoint serialization so that the *measured* effects
// the paper reports — endpoint congestion at reduction roots, the benefit
// of destination rotation, allgather's linear-in-P growth — emerge from
// simulation rather than being asserted.
//
// Every rank owns a Clock. Sending a message of L words stamps it with a
// departure time (the sender's NIC serializes injections: back-to-back
// sends are spaced β·L apart). Receiving computes the delivery time
// max(departure+α, receiver NIC free) + β·L, so concurrent arrivals at
// one endpoint queue behind each other. A single isolated message
// therefore costs exactly α + β·L, matching the classic model, while
// hot-spots pay the serialized β terms the paper's rotation optimization
// is designed to avoid.
//
// Clocks also account local computation (γ per floating-point operation)
// and attribute every advance to a Phase (computation, sparsification,
// communication), which is how the runtime-breakdown figures (8, 10, 12)
// are regenerated.
//
// The unit of every word count is one 8-byte word (β is seconds per
// 8-byte word). On the default f64 wire each transmitted element —
// value or index — occupies one word; on the float32 wire
// (cluster.WireF32) each 4-byte element occupies half a word and
// senders stamp ⌈elements/2⌉ words (cluster.Wire.Words), which is what
// halves every β term relative to the f64 wire. The model itself is
// representation-agnostic: it prices whatever word counts the callers
// stamp.
//
// Every product that feeds an addition is wrapped in an explicit
// float64 conversion. The Go spec lets a compiler fuse x*y+z into one
// fused multiply-add, and arm64, ppc64le and s390x do; the conversion
// forces the intermediate rounding, so modeled clocks are bit-identical
// on every architecture. CI checks the assembly for fused instructions.
package netmodel

import "fmt"

// Params are the machine constants of the cost model. The defaults are
// loosely calibrated to a Piz-Daint-class system (Cray Aries: ~1 µs
// latency, ~10 GB/s per-node bandwidth, P100-class compute) but only the
// ratios matter for the shapes of the reproduced figures.
type Params struct {
	Alpha float64 // seconds of latency per message
	Beta  float64 // seconds per 8-byte word of transfer
	Gamma float64 // seconds per floating-point operation (compute model)

	// Topo describes the network topology (hierarchy, rail contention,
	// straggler injection). The zero value is the flat network; see
	// Topology. It rides inside Params so every construction path —
	// inproc clusters, TCP worker jobs, checkpoints — carries it
	// without new plumbing.
	Topo Topology
}

// PizDaint returns cost parameters approximating the paper's testbed:
// α = 1.5 µs, 9.7 GB/s injection bandwidth (β ≈ 0.82 ns/word), and an
// effective 1 Tflop/s sustained compute rate for the model kernels.
func PizDaint() Params {
	return Params{
		Alpha: 1.5e-6,
		Beta:  8.0 / 9.7e9,
		Gamma: 1.0 / 1.0e12,
	}
}

// Commodity returns parameters for a commodity 10 GbE cloud cluster
// (α = 30 µs, ~1.2 GB/s), where the paper predicts Ok-Topk's advantage
// grows; used by the ablation benches.
func Commodity() Params {
	return Params{
		Alpha: 30e-6,
		Beta:  8.0 / 1.2e9,
		Gamma: 1.0 / 1.0e12,
	}
}

// Phase labels every clock advance for the breakdown figures.
type Phase int

const (
	// PhaseCompute is forward/backward computation plus I/O.
	PhaseCompute Phase = iota
	// PhaseSparsify is top-k selection work (threshold evaluation, scans,
	// packing into COO).
	PhaseSparsify
	// PhaseComm is allreduce traffic: injection waits, latency, delivery.
	PhaseComm
	numPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseCompute:
		return "computation"
	case PhaseSparsify:
		return "sparsification"
	case PhaseComm:
		return "communication"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Clock is the per-rank simulated clock. It is owned by a single worker
// goroutine; the only cross-goroutine interaction is through message
// stamps (plain float64 values carried inside messages), so Clock needs
// no internal locking.
type Clock struct {
	params   Params
	cpu      float64 // current simulated time of this rank
	sendFree float64 // time at which the send NIC channel becomes free
	recvFree float64 // time at which the recv NIC channel becomes free

	// Topology state. rank identifies this clock's position in the
	// topology; hier/noisy cache which parts of params.Topo are live
	// (both false on the flat network, which keeps every hot path on
	// the exact pre-topology arithmetic). railUsers is the declared
	// number of ranks sharing this node's inter-node rail (0 = the
	// topology default, NodeSize). outSends tracks completion times of
	// this rank's in-flight inter-node transfers for the dynamic
	// backlog term of the sharing model. step is the training
	// iteration jitter is keyed on.
	rank      int
	hier      bool
	noisy     bool
	isStrag   bool
	railUsers int
	outSends  []float64
	step      int

	phase     Phase
	phaseTime [numPhases]float64

	// Overlap-window state (see BeginOverlap): while a window is open,
	// cpu is the communication track and ovComp the concurrent compute
	// track; ovPhase snapshots attribution for the rewrite at EndOverlap.
	inOverlap bool
	ovStart   float64
	ovComp    float64
	ovPhase   [numPhases]float64

	sentWords int64
	recvWords int64
	sentMsgs  int64
	recvMsgs  int64
}

// NewRankClock returns a zeroed clock for the given rank. The rank
// determines the clock's node under p.Topo and its straggler/jitter
// draws; on the flat topology it is inert.
func NewRankClock(p Params, rank int) *Clock {
	c := &Clock{params: p, rank: rank}
	c.deriveTopo()
	return c
}

// deriveTopo caches the topology activity flags and this rank's
// straggler designation from params.Topo.
func (c *Clock) deriveTopo() {
	t := c.params.Topo
	c.hier = t.NodeSize > 1
	c.noisy = t.StragglerFrac > 0 || t.Jitter > 0
	c.isStrag = t.StragglerSlow > 1 && t.IsStraggler(c.rank)
}

// Params returns the machine constants of this clock.
func (c *Clock) Params() Params { return c.params }

// Rank returns the topology position this clock was created for.
func (c *Clock) Rank() int { return c.rank }

// SetStep keys subsequent jitter draws to training iteration t. On the
// flat topology (and with Jitter off) it is a plain store with no
// observable effect, so callers may stamp it unconditionally.
func (c *Clock) SetStep(t int) { c.step = t }

// SetRailUsers declares how many ranks currently share this node's
// inter-node rail; collectives whose schedule guarantees fewer
// concurrent rail users than the topology default (NodeSize) call it
// around the sparse phase — HierarchicalAllreduce declares 1 during
// its leader exchange. k ≤ 0 restores the default. It returns the
// previous declaration (0 = default) so callers can restore it.
func (c *Clock) SetRailUsers(k int) int {
	prev := c.railUsers
	if k <= 0 {
		k = 0
	}
	c.railUsers = k
	return prev
}

// effRailUsers resolves the declared rail occupancy: the explicit
// declaration if set, else every rank of the node (NodeSize).
func (c *Clock) effRailUsers() int {
	if c.railUsers > 0 {
		return c.railUsers
	}
	if n := c.params.Topo.NodeSize; n > 1 {
		return n
	}
	return 1
}

// slowdown is this rank's local-compute multiplier at the current step.
func (c *Clock) slowdown() float64 {
	t := c.params.Topo
	m := 1.0
	if c.isStrag {
		m = t.StragglerSlow
	}
	if t.Jitter > 0 {
		m *= 1 + float64(t.Jitter*t.JitterU(c.rank, c.step))
	}
	return m
}

// Now returns the rank's current simulated time in seconds.
func (c *Clock) Now() float64 { return c.cpu }

// SetPhase switches the attribution bucket for subsequent advances.
func (c *Clock) SetPhase(p Phase) { c.phase = p }

// CurrentPhase returns the active attribution bucket.
func (c *Clock) CurrentPhase() Phase { return c.phase }

// advance moves cpu forward to t (no-op if t is in the past) and charges
// the delta to the current phase.
func (c *Clock) advance(t float64) {
	if t > c.cpu {
		c.phaseTime[c.phase] += t - c.cpu
		c.cpu = t
	}
}

// AdvanceTo synchronizes the clock to an externally computed time (used
// by barriers and collective completion points).
func (c *Clock) AdvanceTo(t float64) { c.advance(t) }

// Compute charges flops floating-point operations of local work.
// Straggler ranks (and jittered steps) run proportionally slower.
func (c *Clock) Compute(flops float64) {
	if flops < 0 {
		panic("netmodel: negative flops")
	}
	if c.noisy {
		c.advance(c.cpu + float64(flops*c.params.Gamma*c.slowdown()))
		return
	}
	c.advance(c.cpu + float64(flops*c.params.Gamma))
}

// Sleep charges a fixed amount of local time (used for modeled I/O and
// framework overheads). Straggler/jitter scaling applies as in Compute.
func (c *Clock) Sleep(seconds float64) {
	if seconds < 0 {
		panic("netmodel: negative sleep")
	}
	if c.noisy {
		c.advance(c.cpu + float64(seconds*c.slowdown()))
		return
	}
	c.advance(c.cpu + seconds)
}

// StampSendTo reserves the send NIC for a message of the given word
// count to rank dst and returns its departure time. The CPU advances to
// the injection start (it does not wait for the message to finish
// streaming), so non-blocking sends posted back-to-back overlap their
// transfers, while the NIC gap serializes their bandwidth — exactly the
// behaviour the bucketing optimization (§3.1.1) exploits.
//
// The transfer streams at the β of the link between this rank and dst.
// On the flat network every link is inter-node and unshared, so the
// stamp is the classic depart = max(cpu, sendFree), sendFree' = depart
// + β·words. With hierarchy active:
//
//   - intra-node transfers stream at β·IntraBetaFrac with no sharing
//     (the node-local link is not the contended rail);
//   - inter-node transfers pay the sharing model: effective
//     β·(1+σ·sharers), where sharers = (declared rail users − 1) + the
//     sender's own backlog — the number of its earlier inter-node
//     transfers still streaming when the CPU posts this one. The
//     backlog term is what makes a bucket burst (DenseOvlp issuing
//     reductions while pipeline activation hops are in flight) degrade
//     its own bandwidth; the static term charges for node neighbours
//     on the same rail. Both terms are monotone: more sharers never
//     speed a transfer up.
func (c *Clock) StampSendTo(dst, words int) float64 {
	if words < 0 {
		panic("netmodel: negative message size")
	}
	t := &c.params.Topo
	depart := c.cpu
	if c.sendFree > depart {
		depart = c.sendFree
	}
	beta, intra := c.params.Beta, t.SameNode(c.rank, dst)
	switch {
	case intra:
		beta = t.intraBeta(beta)
	case c.hier:
		// Prune completed transfers as of the CPU's post time, then
		// count the survivors as backlog.
		live := c.outSends[:0]
		for _, done := range c.outSends {
			if done > c.cpu {
				live = append(live, done)
			}
		}
		c.outSends = live
		beta = t.sharedBeta(beta, c.effRailUsers()-1+len(c.outSends))
	}
	c.sendFree = depart + float64(float64(words)*beta)
	if c.hier && !intra {
		c.outSends = append(c.outSends, c.sendFree)
	}
	c.advance(depart)
	c.sentWords += int64(words)
	c.sentMsgs++
	return depart
}

// StampRecvFrom accounts delivery of a message from rank src that
// departed at depart with the given size, and blocks the CPU until
// delivery finishes: done = max(depart+α, recvFree) + β·words. Delivery
// occupies the receive NIC for β·words, so concurrent arrivals at one
// rank serialize (endpoint congestion). With hierarchy active,
// intra-node deliveries pay α·IntraAlphaFrac and β·IntraBetaFrac;
// inter-node deliveries pay full α and the statically shared β (the
// receiver cannot see the sender's dynamic backlog — that is priced at
// the send side — but its own node neighbours contend for its rail
// too).
func (c *Clock) StampRecvFrom(src int, depart float64, words int) {
	if words < 0 {
		panic("netmodel: negative message size")
	}
	t := &c.params.Topo
	alpha, beta := c.params.Alpha, c.params.Beta
	switch {
	case t.SameNode(c.rank, src):
		alpha = t.intraAlpha(alpha)
		beta = t.intraBeta(beta)
	case c.hier:
		beta = t.sharedBeta(beta, c.effRailUsers()-1)
	}
	start := depart + alpha
	if c.recvFree > start {
		start = c.recvFree
	}
	done := start + float64(float64(words)*beta)
	c.recvFree = done
	c.advance(done)
	c.recvWords += int64(words)
	c.recvMsgs++
}

// DrainSends blocks the CPU until the send NIC is idle; collective
// algorithms call it where a real implementation would wait on all
// outstanding MPI requests.
func (c *Clock) DrainSends() { c.advance(c.sendFree) }

// Overlap window: a two-track region of simulated time in which local
// computation (the backward pass) and communication (bucketed gradient
// reductions) proceed concurrently, the way a real framework overlaps
// allreduce traffic with the backward kernels that produce later
// buckets.
//
// Between BeginOverlap and EndOverlap the clock splits into two tracks:
//
//   - the COMPUTE track (OverlapCompute / OverlapSleep) models the
//     backward pass burning through its per-layer schedule; it never
//     waits for communication;
//   - the COMM track is the ordinary cpu/NIC machinery — StampSendTo,
//     StampRecvFrom and message-folding Compute charges advance it
//     exactly as outside a window. OverlapReady pins it to the compute
//     track before each issue: communication whose input a layer just
//     produced cannot depart before that layer's backward finished.
//
// EndOverlap closes the window at T = max(compute, comm) and rewrites
// the window's phase attribution from the two tracks: the compute track
// went to PhaseCompute in full, and only the remainder the comm track
// ran past the compute track — the EXPOSED communication — is charged
// to PhaseComm. Communication that finished under the compute track
// costs no wall time at all, which is precisely the overlap the
// DenseOvlp baseline builds its bucket pipeline for. Attribution
// recorded by in-window advances is discarded by the rewrite, so a
// window must not contain work that should surface under PhaseSparsify.
//
// Windows interoperate with other ranks transparently: message stamps
// carry absolute times, and a peer's recv simply waits until this
// rank's comm track injected the data. Snapshot must not be taken
// inside an open window.

// BeginOverlap opens an overlap window at the current time. Windows do
// not nest.
func (c *Clock) BeginOverlap() {
	if c.inOverlap {
		panic("netmodel: BeginOverlap inside an open overlap window")
	}
	c.inOverlap = true
	c.ovStart = c.cpu
	c.ovComp = c.cpu
	c.ovPhase = c.phaseTime
}

// InOverlap reports whether an overlap window is open.
func (c *Clock) InOverlap() bool { return c.inOverlap }

// OverlapCompute charges flops floating-point operations to the
// window's compute track.
func (c *Clock) OverlapCompute(flops float64) {
	c.OverlapSleep(flops * c.params.Gamma)
}

// OverlapSleep charges a fixed duration of local work to the window's
// compute track. Straggler/jitter scaling applies exactly as for Sleep
// — a slow rank's backward pass stretches, shrinking the window its
// communication can hide under.
func (c *Clock) OverlapSleep(seconds float64) {
	if !c.inOverlap {
		panic("netmodel: OverlapSleep outside an overlap window")
	}
	if seconds < 0 {
		panic("netmodel: negative sleep")
	}
	if c.noisy {
		seconds *= c.slowdown()
	}
	c.ovComp += seconds
}

// OverlapReady synchronizes the comm track to the compute track: data
// the compute track just finished producing cannot enter the network
// earlier. Call it immediately before issuing the communication that
// consumes the data. The wait itself is free — the rank is computing
// through it on the other track.
func (c *Clock) OverlapReady() {
	if !c.inOverlap {
		panic("netmodel: OverlapReady outside an overlap window")
	}
	if c.ovComp > c.cpu {
		c.cpu = c.ovComp
	}
}

// EndOverlap closes the window, advancing the clock to the later of the
// two tracks and rewriting the window's attribution: the full compute
// track under PhaseCompute, the exposed communication remainder under
// PhaseComm.
func (c *Clock) EndOverlap() {
	if !c.inOverlap {
		panic("netmodel: EndOverlap without BeginOverlap")
	}
	c.inOverlap = false
	t := c.cpu
	if c.ovComp > t {
		t = c.ovComp
	}
	c.phaseTime = c.ovPhase
	c.phaseTime[PhaseCompute] += c.ovComp - c.ovStart
	if t > c.ovComp {
		c.phaseTime[PhaseComm] += t - c.ovComp
	}
	c.cpu = t
}

// Stats is a snapshot of one rank's accounting.
type Stats struct {
	Time      float64 // final simulated time (seconds)
	PhaseTime [3]float64
	SentWords int64
	RecvWords int64
	SentMsgs  int64
	RecvMsgs  int64
}

// Snapshot returns the clock's accumulated accounting.
func (c *Clock) Snapshot() Stats {
	return Stats{
		Time:      c.cpu,
		PhaseTime: [3]float64{c.phaseTime[0], c.phaseTime[1], c.phaseTime[2]},
		SentWords: c.sentWords,
		RecvWords: c.recvWords,
		SentMsgs:  c.sentMsgs,
		RecvMsgs:  c.recvMsgs,
	}
}

// Reset zeroes time and counters but keeps the machine parameters and
// the clock's topology position (rank).
func (c *Clock) Reset() {
	p, r := c.params, c.rank
	*c = Clock{params: p, rank: r}
	c.deriveTopo()
}

// ClockState is the complete restorable state of a Clock — everything
// except the machine parameters and the (transient) overlap window.
// Checkpoints store it per rank so a resumed run replays every
// subsequent stamp on bit-identical absolute times: floating-point
// addition is not translation-invariant, so restoring the absolute
// state (rather than re-deriving it from an elapsed total) is the only
// way a recovered job's modeled clock stays bit-exact.
type ClockState struct {
	Time      float64
	SendFree  float64
	RecvFree  float64
	Phase     int
	PhaseTime [3]float64
	SentWords int64
	RecvWords int64
	SentMsgs  int64
	RecvMsgs  int64

	// Topology state: the declared rail occupancy, the completion
	// times of in-flight inter-node transfers (the backlog the sharing
	// model prices), and the jitter step. All zero on the flat
	// topology, so pre-topology checkpoints restore unchanged.
	RailUsers int
	OutSends  []float64
	Step      int
}

// State captures the clock for a checkpoint. It must be called between
// iterations: capturing inside an open overlap window would lose the
// window's split tracks, so that is a programming error.
func (c *Clock) State() ClockState {
	if c.inOverlap {
		panic("netmodel: State inside an open overlap window")
	}
	s := ClockState{
		Time:      c.cpu,
		SendFree:  c.sendFree,
		RecvFree:  c.recvFree,
		Phase:     int(c.phase),
		PhaseTime: [3]float64{c.phaseTime[0], c.phaseTime[1], c.phaseTime[2]},
		SentWords: c.sentWords,
		RecvWords: c.recvWords,
		SentMsgs:  c.sentMsgs,
		RecvMsgs:  c.recvMsgs,
		RailUsers: c.railUsers,
		Step:      c.step,
	}
	if len(c.outSends) > 0 {
		s.OutSends = append([]float64(nil), c.outSends...)
	}
	return s
}

// SetState restores a checkpointed clock state, keeping the machine
// parameters. The mirror constraint of State applies.
func (c *Clock) SetState(s ClockState) {
	if c.inOverlap {
		panic("netmodel: SetState inside an open overlap window")
	}
	c.cpu = s.Time
	c.sendFree = s.SendFree
	c.recvFree = s.RecvFree
	c.phase = Phase(s.Phase)
	c.phaseTime = [numPhases]float64{s.PhaseTime[0], s.PhaseTime[1], s.PhaseTime[2]}
	c.sentWords = s.SentWords
	c.recvWords = s.RecvWords
	c.sentMsgs = s.SentMsgs
	c.recvMsgs = s.RecvMsgs
	c.railUsers = s.RailUsers
	c.step = s.Step
	c.outSends = c.outSends[:0]
	if len(s.OutSends) > 0 {
		c.outSends = append(c.outSends, s.OutSends...)
	}
}

// Aggregate combines per-rank snapshots into cluster-level metrics: the
// makespan (max time), the mean per-phase times (what the stacked-bar
// figures plot), and total traffic.
type Aggregate struct {
	Makespan       float64
	MeanPhase      [3]float64
	MaxPhase       [3]float64
	TotalSentWords int64
	TotalMsgs      int64
	MaxRankWords   int64 // largest per-rank received volume (load imbalance indicator)
}

// Aggregate reduces a set of rank snapshots.
func AggregateStats(stats []Stats) Aggregate {
	var a Aggregate
	if len(stats) == 0 {
		return a
	}
	for _, s := range stats {
		if s.Time > a.Makespan {
			a.Makespan = s.Time
		}
		for i := 0; i < 3; i++ {
			a.MeanPhase[i] += s.PhaseTime[i]
			if s.PhaseTime[i] > a.MaxPhase[i] {
				a.MaxPhase[i] = s.PhaseTime[i]
			}
		}
		a.TotalSentWords += s.SentWords
		a.TotalMsgs += s.SentMsgs
		if s.RecvWords > a.MaxRankWords {
			a.MaxRankWords = s.RecvWords
		}
	}
	for i := 0; i < 3; i++ {
		a.MeanPhase[i] /= float64(len(stats))
	}
	return a
}
