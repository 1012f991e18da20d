// Package snn implements the discrete-time leaky-integrate-and-fire (LIF)
// spiking neural network model of Definitions 1-3 of Aimone et al.,
// "Provable Advantages for Graph Algorithms in Spiking Neural Networks"
// (SPAA 2021).
//
// # Dynamics
//
// Time proceeds in integer steps t >= 0. Each neuron j carries a voltage
// v_j(t) initialized to its reset value. At every step,
//
//	v̂(t) = v(t-1) - (v(t-1) - v_reset)·τ + v_syn(t)
//	f(t) = 1  iff  v̂(t) crosses v_threshold (see FireRule)
//	v(t) = v_reset if f(t)=1, else v̂(t)
//
// where v_syn(t) sums w_ij over synapses ij whose presynaptic neuron fired
// at time t - d_ij. A spike emitted at time T across a synapse with delay d
// therefore influences the postsynaptic firing decision at exactly T+d;
// this is the effective-latency convention every circuit in the paper's
// Section 5 assumes (e.g. the self-loop latch of Figure 1B fires on every
// step). Delays must be >= 1 (the paper's hardware minimum δ).
//
// # Fire rule
//
// Definition 2 states a strict comparison (v̂ > v_threshold), but the
// Section 5 circuits use unit weights with integer thresholds that only
// function under v̂ >= v_threshold (a threshold-2 AND fed by two unit
// synapses). Both rules are supported; FireGTE is the default used by all
// circuits and algorithms in this repository.
//
// # Engine
//
// The simulator is event-driven: between synaptic deliveries no neuron can
// newly cross its threshold (voltages decay toward reset, and reset must
// lie strictly below threshold), so the engine skips silent time steps and
// its running time is proportional to the number of spike deliveries, not
// to wall-clock simulated time. Voltage decay across skipped steps is
// applied lazily and exactly.
//
// Each neuron's engine state (voltage and its time, the step's summed
// input and first excitatory contributor, the generation markers, the
// first spike and its cause) lives in one 64-byte cell, so a delivery and
// the firing decision that follows touch one cache line. The cell names
// its parameters by an index into an interned table: AddNeuron reuses the
// previous neuron's entry when the tuple is bit-for-bit the same, so a
// builder that adds its neurons in runs of one kind carries one entry per
// run (the SSSP relay network, one run, carries one).
//
// Synapses are stored in CSR (compressed sparse row) form: per-neuron
// offsets plus one array of 16-byte synapses. A delay of 2^30 or more
// (graph.Inf crossbar drops, huge netlist delays) is stored as a reference
// into a side table of true values, one entry per run of equal delays,
// which the step reads only for such a synapse. A Connect in source order
// (from at or after the last neuron that has synapses) writes straight
// into it; any other Connect goes to a flat staging slice that the first
// Run or structural read merges in with a stable counting sort. A builder
// that knows every row's final size can instead lay the rows out up front
// (SizeRows) and Place each synapse into its row in any source order, with
// no staging and no merge. Loading a graph is O(n+m) with a handful of
// allocations either way, and each neuron's fan-out keeps the order its
// synapses were added in. Pending events live in pooled, recycled time
// buckets, each one 24-byte delivery-list header (induced spikes and
// flight-probe delays are kept beside the pool by bucket id), found by
// time through a ring indexed by t mod W (W the power of two above the
// largest delay under 2^17, at least 64). A two-level occupancy bitmap
// over the ring (one bit per slot, one per nonzero bitmap word) finds the
// next pending time, so no heap orders the steps. The rare time at or
// beyond the window (huge delays, injector jitter, far-future inputs)
// waits in a small far map ordered by a min-heap, and moves into the ring
// as soon as the window reaches it. A new bucket takes its first delivery
// capacity from a shared slab and a full one doubles, so a fresh run
// allocates a few dozen times, not once per bucket; a warm network re-run
// after Reset allocates nothing unless Config.Record keeps spike trains.
// Trim frees that queue, and Clear empties the topology too, keeping the
// topology buffers for the next one built in their place.
package snn

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// FireRule selects the threshold comparison.
type FireRule int

const (
	// FireGTE fires when v̂ >= v_threshold (used by the paper's circuits).
	FireGTE FireRule = iota
	// FireStrict fires when v̂ > v_threshold (Definition 2 verbatim).
	FireStrict
)

func (r FireRule) String() string {
	if r == FireStrict {
		return "strict"
	}
	return "gte"
}

// Neuron holds the three programmable parameters of Definition 1.
type Neuron struct {
	Reset     float64 // v_reset
	Threshold float64 // v_threshold
	Decay     float64 // τ in [0,1]; 0 = perfect integrator, 1 = memoryless gate
}

// Gate returns the memoryless threshold-gate neuron used throughout the
// Section 5 circuits: reset 0, the given threshold, and full decay, so
// each step's firing decision depends only on that step's inputs.
func Gate(threshold float64) Neuron {
	return Neuron{Reset: 0, Threshold: threshold, Decay: 1}
}

// Integrator returns a no-leak accumulator neuron (τ = 0) with reset 0,
// used by the delay gadget of Figure 1A and the SSSP relay neurons.
func Integrator(threshold float64) Neuron {
	return Neuron{Reset: 0, Threshold: threshold, Decay: 0}
}

// synapse is a directed connection with programmable weight and delay,
// as stored in the compacted CSR layout (the source is implied by the
// row), in 16 bytes. A delay below longBase is stored as itself; a
// longer one as longBase+j, its true value being Network.long[j].
// packSynapse writes the stored form and delayOf reads it.
type synapse struct {
	to     int32
	delay  int32
	weight float64
}

// MaxDelay is the largest programmable synaptic delay, 2^61-1: the
// graph.Inf of the graph builders, so every delay they program fits. A
// spike at a time below 2^62 then schedules its delivery without
// overflowing time, which a delay near 2^63 would. Connect and Place
// panic on a longer delay, and Validate reports one as delay-max.
const MaxDelay = 1<<61 - 1

// MaxInduceTime is the latest time InduceSpike accepts, math.MaxInt64 -
// MaxDelay, so an induced spike schedules its deliveries through any
// synapse without overflowing time. InduceSpike panics on a later time,
// and Validate reports one as induced-time.
const MaxInduceTime = math.MaxInt64 - MaxDelay

// longBase is the least delay kept in the Network.long side table: the
// graph.Inf drops of a crossbar and huge netlist delays. The reference
// rides in the synapse, so compaction moves it with the row, and a
// corrupted 0 or negative delay still reads as itself.
const longBase = 1 << 30

// packSynapse returns the stored form of a synapse, adding a delay of
// longBase or more to the side table. An entry equal to the last one
// added is reused, so a run of equal long delays (a crossbar's graph.Inf
// drops) shares one.
func (n *Network) packSynapse(to int32, weight float64, delay int64) synapse {
	d := int32(delay)
	if delay >= longBase {
		j := len(n.long) - 1
		if j < 0 || n.long[j] != delay {
			if j = len(n.long); j > math.MaxInt32-longBase {
				panic(fmt.Sprintf("snn: more than %d distinct long delays", math.MaxInt32-longBase+1))
			}
			n.long = append(n.long, delay)
		}
		d = longBase + int32(j)
	}
	return synapse{to: to, delay: d, weight: weight}
}

// delayOf returns the true delay of s. A reference past the side table
// (only a corrupted network holds one) reads as 0, which Validate
// reports as delay-min.
func (n *Network) delayOf(s synapse) int64 {
	if s.delay < longBase {
		return int64(s.delay)
	}
	if j := int(s.delay - longBase); j < len(n.long) {
		return n.long[j]
	}
	return 0
}

// cell is one neuron's engine state, padded to one 64-byte cache line.
// synIn and synFrom hold the current step's summed input and first
// positive-weight contributor, valid only while touchedAt equals the
// step's generation; forcedAt marks the generation of the last induced
// spike. param indexes Network.params.
type cell struct {
	voltage    float64 // membrane voltage, current at vtime
	vtime      int64
	synIn      float64
	touchedAt  int64
	forcedAt   int64
	firstSpike int64
	synFrom    int32
	firstCause int32
	param      int32
	_          [4]byte
}

// stagedSynapse is a synapse added by an out-of-source-order Connect and
// not yet compacted into the CSR layout; 24 bytes with no padding.
type stagedSynapse struct {
	from, to int32
	weight   float64
	delay    int64
}

// Config controls optional simulator features.
type Config struct {
	Rule FireRule
	// Record keeps the full spike train of every neuron (memory O(spikes));
	// FirstSpike and FirstCause are always available without it.
	Record bool
}

// StepProbe observes every non-silent simulation step. The engine calls
// OnStep once per processed time step with that step's deltas: the number
// of neurons that fired, the synaptic deliveries consumed, the neurons
// whose membrane state was touched, and the pending-event queue depth
// (deliveries plus induced spikes still scheduled) after the step. All
// arguments are scalars so a probe costs one interface call and zero
// allocations; a nil probe costs a single predictable branch
// (telemetry.Recorder is the standard implementation).
type StepProbe interface {
	OnStep(t int64, spikes, deliveries, active, queueDepth int)
}

// Network is a spiking neural network: a directed graph of LIF neurons.
// Build the topology with AddNeuron and Connect (or SizeRows and Place),
// inject inputs with InduceSpike, then call Run. Reset restores dynamic
// state so the same topology can be re-run (the crossbar re-embedding
// workflow).
type Network struct {
	cfg    Config
	cells  []cell
	params []Neuron // interned parameter tuples, indexed by cell.param

	// Synapses in CSR form: neuron i's outgoing synapses are
	// syn[off[i]:off[i+1]] in insertion order. Until compaction off may
	// stop short of the last neurons (their rows are empty), and its last
	// row is open: a source-order Connect appends to it. Any other Connect
	// appends to staged; compact merges staged into off/syn before the
	// next run or read. While sized rows are open (SizeRows), off[i+1] is
	// row i's write cursor, ends[i] where row i ends, and open counts the
	// slots still to Place.
	off      []int32
	syn      []synapse
	long     []int64 // true delays of the syn entries stored as longBase+j, at j
	staged   []stagedSynapse
	ends     []int32
	open     int
	maxDelay int64 // largest delay below ringCap; sizes the ring

	now int64

	// pending-event queue (see queue.go)
	buckets   []bucket
	forced    [][]int32  // induced spikes by bucket id
	delays    [][]int64  // flight-probe delays by bucket id
	induced   int        // induced spikes pending in forced
	free      []int32    // recycled bucket ids
	slab      []delivery // first delivery capacity of buckets new to the pool
	ring      []int32    // bucket id by t & (len-1), or -1
	occ       []uint64   // one bit per ring slot in use
	summary   []uint64   // one bit per nonzero occ word
	ringCount int        // ring slots in use
	far       map[int64]int32
	times     []int64 // min-heap of the far map's times
	base      int64   // latest consumed time; the ring covers [base, base+len(ring))

	spikeLog [][]int64

	terminals   []int32
	terminalAll bool

	// per-step scratch, reused
	touched []int32 // neurons that received a delivery
	fired   []int32

	gen int64

	stats Stats
	// pendingEvents counts scheduled-but-unconsumed deliveries and forced
	// spikes; its running maximum is Stats.MaxQueueDepth.
	pendingEvents int64
	lastStep      int64 // last processed step time, -1 before any step
	probe         StepProbe
	injector      Injector

	// causal provenance (see provenance.go); all nil/empty unless a
	// FlightProbe is attached.
	flight     FlightProbe
	ants       [][]Antecedent // per-neuron antecedents of the current step
	antTargets []int32        // neurons with non-empty ants, for clearing
	labels     []string
	labeler    func(i int) string
}

// Stats aggregates the cost measures of a simulation: Spikes is the total
// number of firings, Deliveries the number of synaptic events (the energy
// proxy of Table 3's pJ/spike-event accounting), and Steps the number of
// non-silent time steps actually processed. MaxQueueDepth is the high-water
// mark of scheduled-but-unconsumed events (deliveries + induced spikes),
// the engine's memory footprint; SilentStepsSkipped counts the simulated
// time steps the event-driven engine never materialized — the measurable
// payoff of the silence-skipping optimization (Steps + SilentStepsSkipped
// spans the simulated interval actually covered).
type Stats struct {
	Spikes             int64
	Deliveries         int64
	Steps              int64
	MaxQueueDepth      int64
	SilentStepsSkipped int64
}

// NewNetwork returns an empty network with the given configuration.
func NewNetwork(cfg Config) *Network {
	return &Network{
		cfg:      cfg,
		far:      make(map[int64]int32),
		lastStep: -1,
	}
}

// Grow reserves room for neurons more neurons (their cells and CSR
// offsets) and synapses more synapses, like bytes.Buffer.Grow, so a
// builder that knows its sizes (core's relay network, ReadNetlist) adds
// them without reallocating; SizeRows lays its rows out in the reserved
// synapse capacity. The parameter table is not grown: it holds one entry
// per run of equal tuples. Grow changes no behaviour.
func (n *Network) Grow(neurons, synapses int) {
	n.cells = slices.Grow(n.cells, neurons)
	if n.cfg.Record {
		n.spikeLog = slices.Grow(n.spikeLog, neurons)
	}
	n.off = slices.Grow(n.off, neurons+1)
	n.syn = slices.Grow(n.syn, synapses)
}

// SetProbe installs (or, with nil, removes) a per-step observer. Probing
// adds no per-step allocations; with a nil probe the step loop pays only
// a nil check (guarded by BenchmarkEngineProbeOverhead).
func (n *Network) SetProbe(p StepProbe) { n.probe = p }

// N returns the number of neurons.
func (n *Network) N() int { return len(n.cells) }

// Synapses returns the total number of synapses added (placed, for sized
// rows).
func (n *Network) Synapses() int { return len(n.syn) + len(n.staged) - n.open }

// AddNeuron adds a neuron and returns its index. The reset voltage must
// lie strictly below the threshold (under FireGTE) or at most equal to it
// (under FireStrict): otherwise the neuron would fire spontaneously forever
// and the event-driven engine's silence invariant would not hold.
func (n *Network) AddNeuron(p Neuron) int {
	if math.IsNaN(p.Reset) || math.IsNaN(p.Threshold) || math.IsNaN(p.Decay) {
		panic("snn: NaN neuron parameter")
	}
	if p.Decay < 0 || p.Decay > 1 {
		panic(fmt.Sprintf("snn: decay %v outside [0,1]", p.Decay))
	}
	if n.cfg.Rule == FireGTE && p.Reset >= p.Threshold {
		panic(fmt.Sprintf("snn: reset %v >= threshold %v would self-fire under GTE rule", p.Reset, p.Threshold))
	}
	if n.cfg.Rule == FireStrict && p.Reset > p.Threshold {
		panic(fmt.Sprintf("snn: reset %v > threshold %v would self-fire", p.Reset, p.Threshold))
	}
	// Intern by bit pattern, not ==: -0 and +0 compare equal but are
	// different parameters to the netlist writer.
	k := len(n.params) - 1
	if k < 0 || !sameBits(n.params[k], p) {
		n.params = append(n.params, p)
		k++
	}
	idx := len(n.cells)
	n.cells = append(n.cells, cell{
		voltage:    p.Reset,
		touchedAt:  -1,
		forcedAt:   -1,
		firstSpike: -1,
		synFrom:    -1,
		firstCause: -1,
		param:      int32(k),
	})
	if n.cfg.Record {
		n.spikeLog = append(n.spikeLog, nil)
	}
	return idx
}

// sameBits reports whether a and b are the same tuple bit for bit.
func sameBits(a, b Neuron) bool {
	return math.Float64bits(a.Reset) == math.Float64bits(b.Reset) &&
		math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold) &&
		math.Float64bits(a.Decay) == math.Float64bits(b.Decay)
}

// AddNeurons adds k copies of p and returns their indices.
func (n *Network) AddNeurons(k int, p Neuron) []int {
	ids := make([]int, k)
	for i := range ids {
		ids[i] = n.AddNeuron(p)
	}
	return ids
}

// Connect adds a synapse from -> to with the given weight and delay >= 1.
// Builders that connect neurons in source order (all of neuron i's
// synapses before neuron i+1's) fill the CSR layout directly.
// Connect panics while sized rows are still being placed.
func (n *Network) Connect(from, to int, weight float64, delay int64) {
	n.checkSynapse(from, to, weight, delay)
	if n.open > 0 {
		panic(fmt.Sprintf("snn: Connect while %d sized-row synapses are unplaced", n.open))
	}
	if len(n.staged) == 0 && from >= len(n.off)-2 {
		// Source order: open rows up to from, then extend the last one.
		for len(n.off) < from+2 {
			n.off = append(n.off, int32(len(n.syn)))
		}
		n.syn = append(n.syn, n.packSynapse(int32(to), weight, delay))
		n.off[from+1]++
	} else {
		n.staged = append(n.staged, stagedSynapse{from: int32(from), to: int32(to), weight: weight, delay: delay})
	}
	n.noteDelay(delay)
}

// checkSynapse panics on a synapse no network may hold: an endpoint out
// of range, a delay below 1 or above MaxDelay, or a NaN weight.
func (n *Network) checkSynapse(from, to int, weight float64, delay int64) {
	if from < 0 || from >= len(n.cells) || to < 0 || to >= len(n.cells) {
		panic(fmt.Sprintf("snn: synapse (%d,%d) out of range [0,%d)", from, to, len(n.cells)))
	}
	if delay < 1 {
		panic(fmt.Sprintf("snn: delay %d < minimum programmable delay 1", delay))
	}
	if delay > MaxDelay {
		panic(fmt.Sprintf("snn: delay %d > maximum programmable delay %d", delay, int64(MaxDelay)))
	}
	if math.IsNaN(weight) {
		panic("snn: NaN synapse weight")
	}
}

// noteDelay tracks the largest in-ring delay, which sizes the ring.
func (n *Network) noteDelay(delay int64) {
	if delay < ringCap && delay > n.maxDelay {
		n.maxDelay = delay
	}
}

// SizeRows lays out the CSR row of every current neuron from its final
// synapse count, count(i) for neuron i, in the synapse capacity Grow
// reserved. Place then fills the rows in any source order; each row
// keeps the order its synapses were placed in. It is the one-pass
// alternative to Connect for a builder that knows every row's size but
// not in source order (core's relay network walks its edge list). It
// panics on a network that already has synapses, a negative count, or a
// total past 2^31-1. Until every row is full, Connect panics, and so do
// Run and every structural read.
func (n *Network) SizeRows(count func(i int) int) {
	if len(n.syn) > 0 || len(n.staged) > 0 {
		panic("snn: SizeRows on a network that already has synapses")
	}
	// As in compact, off[i+1] holds row i's write cursor, and once the
	// row is full it ends where row i+1 starts. ends keeps each row's end
	// for the overfill check until the last slot is placed.
	nn := len(n.cells)
	n.off = slices.Grow(n.off, nn+1)[:nn+1]
	n.ends = slices.Grow(n.ends[:0], nn)[:nn]
	n.off[0] = 0
	var sum int64
	for i := 0; i < nn; i++ {
		c := count(i)
		if c < 0 {
			panic(fmt.Sprintf("snn: negative row size %d for neuron %d", c, i))
		}
		n.off[i+1] = int32(sum)
		if sum += int64(c); sum > math.MaxInt32 {
			panic(fmt.Sprintf("snn: sized rows hold more than %d synapses", math.MaxInt32))
		}
		n.ends[i] = int32(sum)
	}
	n.syn = slices.Grow(n.syn, int(sum))[:sum]
	n.open = int(sum)
	if n.open == 0 {
		n.ends = n.ends[:0]
	}
}

// Place writes the synapse from -> to into the next free slot of from's
// sized row (see SizeRows), with Connect's checks. It panics when from's
// row is already full.
func (n *Network) Place(from, to int, weight float64, delay int64) {
	// One branch covers Connect's checks, an open row for from and room
	// in it; badPlace works out which failed.
	if uint(from) >= uint(len(n.ends)) || uint(to) >= uint(len(n.cells)) || uint64(delay-1) >= MaxDelay || math.IsNaN(weight) ||
		n.off[from+1] >= n.ends[from] {
		n.badPlace(from, to, weight, delay)
	}
	k := n.off[from+1]
	n.syn[k] = n.packSynapse(int32(to), weight, delay)
	n.off[from+1] = k + 1
	n.noteDelay(delay)
	if n.open--; n.open == 0 {
		n.ends = n.ends[:0] // kept for the next SizeRows after Clear
	}
}

// badPlace panics with the reason Place rejects its synapse. Keeping the
// messages out of Place keeps the per-synapse call short.
func (n *Network) badPlace(from, to int, weight float64, delay int64) {
	n.checkSynapse(from, to, weight, delay)
	if from >= len(n.ends) {
		panic(fmt.Sprintf("snn: Place on neuron %d with no open sized row", from))
	}
	panic(fmt.Sprintf("snn: Place overfills neuron %d's sized row", from))
}

// compact merges the staged synapses into the CSR layout with a stable
// counting sort: each neuron keeps its synapses in insertion order, with
// staged ones following those already in the layout, so delivery order
// (and thus FirstCause) is exactly Connect order. It then gives neurons
// past the last row empty rows and sizes the event ring to the largest
// delay. Run and every structural reader call it; it is a no-op once the
// layout is current.
func (n *Network) compact() {
	if n.open > 0 {
		panic(fmt.Sprintf("snn: %d sized-row synapses unplaced", n.open))
	}
	nn := len(n.cells)
	if len(n.staged) > 0 {
		// off[i+1] counts neuron i's synapses, then holds its write
		// cursor, and after placement ends where neuron i+1 starts.
		off := make([]int32, nn+1)
		for i := 0; i+1 < len(n.off); i++ {
			off[i+1] = n.off[i+1] - n.off[i]
		}
		for _, s := range n.staged {
			off[s.from+1]++
		}
		var sum int32
		for i := 1; i <= nn; i++ {
			off[i], sum = sum, sum+off[i]
		}
		syn := make([]synapse, sum)
		for i := 0; i+1 < len(n.off); i++ {
			k := off[i+1]
			off[i+1] += int32(copy(syn[k:], n.syn[n.off[i]:n.off[i+1]]))
		}
		for _, s := range n.staged {
			syn[off[s.from+1]] = n.packSynapse(s.to, s.weight, s.delay)
			off[s.from+1]++
		}
		n.off, n.syn, n.staged = off, syn, nil
	}
	for len(n.off) < nn+1 {
		n.off = append(n.off, int32(len(n.syn)))
	}
	if w := ringSize(n.maxDelay); w != len(n.ring) {
		n.resizeRing(w)
	}
}

// fanout returns neuron i's outgoing synapses; the layout must be compact.
func (n *Network) fanout(i int32) []synapse { return n.syn[n.off[i]:n.off[i+1]] }

// InduceSpike forces neuron i to fire at time t >= current time, at a
// step Run has not processed yet and no later than MaxInduceTime. This is the input mechanism of
// Definition 3 (computation is initiated by inducing spikes in input
// neurons) and also encodes multi-bit spike messages as trains.
func (n *Network) InduceSpike(i int, t int64) {
	if i < 0 || i >= len(n.cells) {
		panic(fmt.Sprintf("snn: induce on neuron %d of %d", i, len(n.cells)))
	}
	if t < n.now {
		panic(fmt.Sprintf("snn: induce at past time %d (now %d)", t, n.now))
	}
	if t <= n.lastStep {
		panic(fmt.Sprintf("snn: induce at time %d, a step already processed", t))
	}
	if t > MaxInduceTime {
		panic(fmt.Sprintf("snn: induce at time %d > latest induce time %d", t, int64(MaxInduceTime)))
	}
	id := n.bucketID(t)
	for int(id) >= len(n.forced) {
		n.forced = append(n.forced, nil)
	}
	n.forced[id] = append(n.forced[id], int32(i))
	n.induced++
	n.pendingEvents++
}

// SetTerminal marks neuron i as a terminal: Run halts (after finishing the
// step) as soon as any terminal fires, per Definition 3.
func (n *Network) SetTerminal(i int) {
	n.terminals = append(n.terminals, int32(i))
}

// RequireAllTerminals switches the halting rule to "all terminals have
// fired" — the multiple-destination generalization the paper notes after
// Table 1 ("our algorithms can easily be generalized to multiple
// destinations").
func (n *Network) RequireAllTerminals() {
	n.terminalAll = true
}

// ClearTerminals removes every terminal and restores the "any terminal"
// halting rule, so a network re-run after Reset can halt on a different
// neuron (or run to quiescence).
func (n *Network) ClearTerminals() {
	n.terminals = n.terminals[:0]
	n.terminalAll = false
}

// Result reports the outcome of Run.
type Result struct {
	// Halted is true when a terminal neuron fired; TerminalTime is the
	// execution time T of Definition 3 in that case.
	Halted       bool
	TerminalTime int64
	// Quiescent is true when the network ran out of pending events before
	// any terminal fired or the deadline was reached.
	Quiescent bool
	// TimedOut is true when the run stopped because simulated time would
	// exceed maxTime while events were still pending: the network neither
	// halted nor went quiescent, so results read from it may be
	// incomplete. Callers that treat "terminal never fired" as
	// unreachable must check this flag first — under fault injection
	// (delay jitter, dropped spikes) an exhausted deadline is a failed
	// run, not a proof of unreachability.
	TimedOut bool
	// Now is the simulation time after the run.
	Now   int64
	Stats Stats
}

// Run advances the simulation until a terminal neuron fires, the network
// goes quiescent, or simulated time would exceed maxTime. It may be called
// repeatedly; time does not rewind.
//
//lint:hotpath the outer event loop; every per-iteration allocation scales with run length
func (n *Network) Run(maxTime int64) Result {
	n.compact()
	for n.pending() {
		t := n.next()
		if t > maxTime {
			break
		}
		id := n.take(t)
		n.now = t
		// A copy of the header: scheduling may grow the bucket pool.
		b := n.buckets[id]
		forced := n.takeForced(id)
		n.pendingEvents -= int64(len(b.deliveries) + len(forced))
		if t > n.lastStep+1 {
			n.stats.SilentStepsSkipped += t - n.lastStep - 1
		}
		n.lastStep = t
		halted := n.step(t, id, b.deliveries, forced)
		n.release(id)
		if halted {
			return Result{Halted: true, TerminalTime: t, Now: t, Stats: n.stats}
		}
	}
	if !n.pending() {
		return Result{Quiescent: true, Now: n.now, Stats: n.stats}
	}
	n.now = max(n.now, maxTime) // time does not rewind
	return Result{TimedOut: true, Now: n.now, Stats: n.stats}
}

// step processes all activity at time t, the deliveries and induced
// spikes of consumed bucket id, and returns true if a terminal fired.
//
//lint:hotpath the per-step inner loop; TestEngineSteadyStateZeroAlloc pins it at 0 allocs
func (n *Network) step(t int64, id int32, deliveries []delivery, forced []int32) bool {
	n.stats.Steps++
	n.gen++
	gen := n.gen
	cells := n.cells
	touched := n.touched[:0]
	for _, d := range deliveries {
		c := &cells[d.to]
		if c.touchedAt != gen {
			c.touchedAt = gen
			c.synIn = 0
			c.synFrom = -1
			//lint:probealloc amortized reuse, pinned by TestEngineSteadyStateZeroAlloc
			touched = append(touched, d.to)
		}
		c.synIn += d.weight
		if d.weight > 0 && c.synFrom < 0 {
			c.synFrom = d.from
		}
	}
	n.touched = touched
	n.stats.Deliveries += int64(len(deliveries))
	if n.flight != nil {
		n.captureAntecedents(id, deliveries)
	}

	// Determine firings: forced inputs plus threshold crossings.
	fired := n.fired[:0]
	for _, i := range forced {
		if c := &cells[i]; c.forcedAt != gen {
			if n.injector != nil && !n.injector.FilterFire(t, i, true) {
				continue // stuck-at-silent: even induced inputs are lost
			}
			c.forcedAt = gen
			//lint:probealloc amortized reuse, pinned by TestEngineSteadyStateZeroAlloc
			fired = append(fired, i)
		}
	}
	for _, i := range touched {
		c := &cells[i]
		if c.forcedAt == gen {
			continue // forced spike overrides; voltage resets below
		}
		vhat := n.decayedVoltage(c, t) + c.synIn
		if n.injector != nil {
			vhat += n.injector.PerturbVoltage(t, i)
		}
		threshold := n.params[c.param].Threshold
		cross := vhat >= threshold
		if n.cfg.Rule == FireStrict {
			cross = vhat > threshold
		}
		if cross && n.injector != nil && !n.injector.FilterFire(t, i, false) {
			cross = false // suppressed spike: membrane keeps its charge
		}
		if cross {
			//lint:probealloc amortized reuse, pinned by TestEngineSteadyStateZeroAlloc
			fired = append(fired, i)
		} else {
			c.voltage = vhat
			c.vtime = t
		}
	}
	n.fired = fired

	terminal := false
	for _, i := range fired {
		c := &cells[i]
		forced := c.forcedAt == gen
		var vBefore, vAfter float64
		if n.flight != nil {
			vBefore = n.decayedVoltage(c, t)
			vAfter = vBefore
			if c.touchedAt == gen {
				vAfter += c.synIn
			}
		}
		c.voltage = n.params[c.param].Reset
		c.vtime = t
		n.stats.Spikes++
		if c.firstSpike < 0 {
			c.firstSpike = t
			if !forced {
				c.firstCause = c.synFrom
			}
		}
		if n.cfg.Record {
			//lint:probealloc spike trains grow with the run by design (Config.Record)
			n.spikeLog[i] = append(n.spikeLog[i], t)
		}
		scheduled := 0
		for _, s := range n.fanout(i) {
			w, d := s.weight, n.delayOf(s)
			if n.injector != nil {
				var drop bool
				if w, d, drop = n.injector.FilterDelivery(t, i, s.to, w, d); drop {
					continue
				}
				if d < 1 {
					d = 1 // hardware minimum delay
				}
			}
			nid := n.bucketID(t + d)
			n.buckets[nid].schedule(delivery{to: s.to, from: i, weight: w})
			if n.flight != nil {
				n.noteFlightDelay(nid, d)
			}
			scheduled++
		}
		n.pendingEvents += int64(scheduled)
		if n.flight != nil {
			n.flight.OnSpike(t, i, forced, vBefore, vAfter, n.ants[i])
		}
	}
	if n.flight != nil {
		n.clearAntecedents()
	}
	if n.pendingEvents > n.stats.MaxQueueDepth {
		n.stats.MaxQueueDepth = n.pendingEvents
	}
	if len(n.terminals) > 0 {
		if n.terminalAll {
			terminal = true
			for _, term := range n.terminals {
				if cells[term].firstSpike < 0 {
					terminal = false
					break
				}
			}
		} else {
			for _, term := range n.terminals {
				if cells[term].firstSpike == t {
					terminal = true
					break
				}
			}
		}
	}
	if n.probe != nil {
		n.probe.OnStep(t, len(fired), len(deliveries), len(touched), int(n.pendingEvents))
	}
	return terminal
}

// decayedVoltage returns the voltage of c's neuron advanced to time t
// under its leak, without synaptic input.
func (n *Network) decayedVoltage(c *cell, t int64) float64 {
	dt := t - c.vtime
	if dt <= 0 {
		return c.voltage
	}
	p := &n.params[c.param]
	switch {
	//lint:floateq exact sentinel: Decay is assigned only from literals 0/1 or validated input
	case p.Decay == 0:
		return c.voltage
	//lint:floateq exact sentinel
	case p.Decay == 1:
		return p.Reset
	default:
		return p.Reset + (c.voltage-p.Reset)*math.Pow(1-p.Decay, float64(dt))
	}
}

// SynapseInfo describes one synapse for introspection (the CONGEST
// transpiler and analysis tooling read network structure through it).
type SynapseInfo struct {
	To     int
	Weight float64
	Delay  int64
}

// Params returns neuron i's programmable parameters, bit for bit as
// AddNeuron received them (read through the interned parameter table).
func (n *Network) Params(i int) Neuron { return n.params[n.cells[i].param] }

// OutSynapses returns copies of neuron i's outgoing synapses.
func (n *Network) OutSynapses(i int) []SynapseInfo {
	n.compact()
	row := n.fanout(int32(i))
	out := make([]SynapseInfo, len(row))
	for k, s := range row {
		out[k] = SynapseInfo{To: int(s.to), Weight: s.weight, Delay: n.delayOf(s)}
	}
	return out
}

// InducedSpikes returns the currently scheduled induced (forced) spikes
// as a map from time to neuron indices. It reflects only spikes not yet
// consumed by Run.
func (n *Network) InducedSpikes() map[int64][]int {
	out := make(map[int64][]int)
	for _, t := range n.pendingTimes() {
		for _, i := range n.forcedOf(n.lookup(t)) {
			out[t] = append(out[t], int(i))
		}
	}
	return out
}

// Rule returns the configured fire rule.
func (n *Network) Rule() FireRule { return n.cfg.Rule }

// Recording reports whether spike trains are being recorded.
func (n *Network) Recording() bool { return n.cfg.Record }

// Terminals returns the configured terminal neurons and whether the
// halting rule requires all of them to fire.
func (n *Network) Terminals() ([]int, bool) {
	out := make([]int, len(n.terminals))
	for i, t := range n.terminals {
		out[i] = int(t)
	}
	return out, n.terminalAll
}

// FirstSpike returns the time neuron i first fired, or -1 if it never has.
func (n *Network) FirstSpike(i int) int64 { return n.cells[i].firstSpike }

// FirstCause returns the presynaptic neuron whose positive-weight delivery
// coincided with neuron i's first spike, or -1 (e.g. for induced spikes).
// This realizes the predecessor "latching" of Section 3 for path recovery.
func (n *Network) FirstCause(i int) int { return int(n.cells[i].firstCause) }

// Spikes returns the full spike train of neuron i. It panics unless the
// network was built with Config.Record.
func (n *Network) Spikes(i int) []int64 {
	if !n.cfg.Record {
		panic("snn: Spikes requires Config.Record")
	}
	return n.spikeLog[i]
}

// FiredAt reports whether neuron i fired at time t (requires Config.Record).
func (n *Network) FiredAt(i int, t int64) bool {
	for _, s := range n.Spikes(i) {
		if s == t {
			return true
		}
		if s > t {
			return false
		}
	}
	return false
}

// Voltage returns neuron i's membrane voltage at the current sim time.
func (n *Network) Voltage(i int) float64 { return n.decayedVoltage(&n.cells[i], n.now) }

// Now returns the current simulation time.
func (n *Network) Now() int64 { return n.now }

// TotalStats returns the accumulated cost counters.
func (n *Network) TotalStats() Stats { return n.stats }

// Clear removes every neuron and synapse and everything Reset clears or
// keeps, leaving the network as NewNetwork with the same Config returns
// it, but with the capacity of its neuron, parameter, CSR, long-delay
// and row-size buffers kept: a builder that compiles another topology
// into a cleared network reuses them, and builds what it would build in
// a fresh one. The event queue is dropped, as Trim drops it.
func (n *Network) Clear() {
	clear(n.spikeLog)
	clear(n.far)
	*n = Network{
		cfg:      n.cfg,
		cells:    n.cells[:0],
		params:   n.params[:0],
		off:      n.off[:0],
		syn:      n.syn[:0],
		long:     n.long[:0],
		staged:   n.staged[:0],
		ends:     n.ends[:0],
		spikeLog: n.spikeLog[:0],
		far:      n.far,
		lastStep: -1,
	}
}

// Trim resets the network (see Reset) and frees what its runs allocated:
// the pooled queue buckets and their slab, the event ring and its
// bitmaps, and the per-step scratch. The topology stays, so a trimmed
// network holds what a freshly built one holds, and its next Run
// allocates its queue again as a fresh network's first Run does. A pool
// of idle compiled networks trims each one: it keeps the loaded netlist,
// not the scratch of the last run.
func (n *Network) Trim() {
	n.Reset()
	n.buckets, n.forced, n.delays, n.free, n.slab = nil, nil, nil, nil, nil
	n.ring, n.occ, n.summary = nil, nil, nil
	n.times, n.touched, n.fired = nil, nil, nil
	n.ants, n.antTargets = nil, nil
}

// MemoryBytes returns the bytes the compiled network occupies: its
// neuron cells and parameter table, its CSR offsets and synapses, the
// long-delay side table, and the event ring with its occupancy bitmaps,
// which the largest delay sizes. This is the synapse memory a
// neuromorphic core budgets. It counts lengths, not capacities, so two
// networks with the same topology report the same figure whatever
// buffers they were built in.
func (n *Network) MemoryBytes() int {
	n.compact()
	return len(n.cells)*int(unsafe.Sizeof(cell{})) +
		len(n.params)*int(unsafe.Sizeof(Neuron{})) +
		len(n.off)*4 + len(n.syn)*int(unsafe.Sizeof(synapse{})) + len(n.long)*8 +
		len(n.ring)*4 + (len(n.occ)+len(n.summary))*8
}

// Reset clears all dynamic state (voltages, pending events and induced
// inputs, spike history, statistics, simulation time) while keeping
// neurons, their interned parameters and synapses, so the same hardware
// network can run a new
// computation — the embed/unembed workflow of Section 4.4. It also keeps
// everything attached to the network rather than computed by it: the
// terminals and halting rule, the injector, the step and flight probes,
// labels, and the pooled queue buckets (a warm re-run allocates nothing).
// A caller that re-runs with different ones replaces them itself
// (ClearTerminals, SetInjector, SetProbe, SetFlightProbe); an injector is
// not re-Prepared.
func (n *Network) Reset() {
	for i := range n.cells {
		c := &n.cells[i]
		c.voltage = n.params[c.param].Reset
		c.vtime = 0
		c.touchedAt = -1
		c.forcedAt = -1
		c.firstSpike = -1
		c.firstCause = -1
	}
	if n.cfg.Record {
		clear(n.spikeLog)
	}
	n.clearQueue()
	n.now = 0
	n.gen = 0
	n.stats = Stats{}
	n.pendingEvents = 0
	n.lastStep = -1
}
