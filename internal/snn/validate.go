package snn

import (
	"fmt"
	"math"
)

// Static network verification: the no-simulation structural checks a
// neuromorphic toolchain performs before placing a network on hardware.
// Validate enforces the Definition 1-2 invariants of Aimone et al. — every
// programmable parameter finite, decay τ ∈ [0,1], reset strictly below
// threshold (so the event-driven engine's silence invariant holds), every
// synapse delay between the hardware minimum δ = 1 and MaxDelay, and
// every synapse endpoint, induced spike, and terminal referring to a real
// neuron — plus liveness warnings (a terminal that can never fire makes Run unable to
// halt by terminal). ReadNetlist runs these checks on every parsed
// netlist; `spaabench validate` exposes them on the command line; and the
// compile-time half of the same story is cmd/spaavet.

// Severity classifies a Violation.
type Severity int

const (
	// SevError marks a network that violates Definitions 1-2 outright;
	// simulating it would panic or produce meaningless dynamics.
	SevError Severity = iota
	// SevWarn marks a structurally legal but suspicious network (e.g. a
	// terminal that no synapse or induced spike can ever make fire).
	SevWarn
)

func (s Severity) String() string {
	if s == SevWarn {
		return "warn"
	}
	return "error"
}

// Violation is one static check failure.
type Violation struct {
	Severity Severity
	// Kind is a stable machine-readable category: "nonfinite",
	// "decay-range", "self-fire", "delay-min", "delay-max", "endpoint",
	// "induced-range", "induced-time", "terminal-range",
	// "terminal-unreachable".
	Kind string
	// Index is the offending neuron/synapse-owner/terminal index.
	Index int
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s [%s] %s", v.Severity, v.Kind, v.Msg)
}

// HasErrors reports whether any violation in vs is SevError.
func HasErrors(vs []Violation) bool {
	for _, v := range vs {
		if v.Severity == SevError {
			return true
		}
	}
	return false
}

// Validate statically checks a built network against the Definition 1-2
// invariants and returns every violation found, errors first in neuron /
// synapse / induced / terminal order. A nil or empty result means the
// network is safe to simulate. Networks assembled through the public API
// cannot violate the error-level invariants (AddNeuron/Connect panic
// first); Validate exists for networks arriving from outside the process —
// netlists, transpilers, future ingest paths — and as the single
// authoritative statement of what "well-formed" means.
func Validate(n *Network) []Violation {
	return validateSpec(n.spec())
}

// spec flattens the network into the neutral structural description the
// shared checks operate on (also the parse target of ReadNetlist).
func (n *Network) spec() *netSpec {
	n.compact()
	s := &netSpec{cfg: n.cfg, neurons: make([]Neuron, len(n.cells))}
	for i := range s.neurons {
		s.neurons[i] = n.Params(i)
	}
	s.synapses = make([]specSynapse, 0, len(n.syn))
	for from := int32(0); int(from) < len(n.cells); from++ {
		for _, syn := range n.fanout(from) {
			s.synapses = append(s.synapses, specSynapse{
				From: int(from), To: int(syn.to), Weight: syn.weight, Delay: n.delayOf(syn),
			})
		}
	}
	for _, t := range n.pendingTimes() {
		for _, id := range n.forcedOf(n.lookup(t)) {
			s.induced = append(s.induced, specInduced{Time: t, Neuron: int(id)})
		}
	}
	for _, t := range n.terminals {
		s.terminals = append(s.terminals, int(t))
	}
	s.terminalAll = n.terminalAll
	return s
}

// netSpec is the neutral structural form shared by Validate and the
// netlist parser: unlike *Network it can represent invalid inputs
// (out-of-range endpoints, delay 0, NaN decay), which is what makes
// static rejection possible without construct-time panics.
type netSpec struct {
	cfg         Config
	neurons     []Neuron
	synapses    []specSynapse
	induced     []specInduced
	terminals   []int
	terminalAll bool
}

type specSynapse struct {
	From, To int
	Weight   float64
	Delay    int64
}

type specInduced struct {
	Time   int64
	Neuron int
}

func validateSpec(s *netSpec) []Violation {
	var vs []Violation
	bad := func(kind string, index int, format string, args ...any) {
		vs = append(vs, Violation{Severity: SevError, Kind: kind, Index: index, Msg: fmt.Sprintf(format, args...)})
	}
	warn := func(kind string, index int, format string, args ...any) {
		vs = append(vs, Violation{Severity: SevWarn, Kind: kind, Index: index, Msg: fmt.Sprintf(format, args...)})
	}
	nn := len(s.neurons)
	inRange := func(i int) bool { return i >= 0 && i < nn }

	for i, p := range s.neurons {
		if !finite(p.Reset) || !finite(p.Threshold) || !finite(p.Decay) {
			bad("nonfinite", i, "neuron %d has non-finite parameters (reset=%v threshold=%v decay=%v)",
				i, p.Reset, p.Threshold, p.Decay)
			continue // derived checks on NaN are meaningless
		}
		if p.Decay < 0 || p.Decay > 1 {
			bad("decay-range", i, "neuron %d decay %v outside [0,1] (Definition 1: τ ∈ [0,1])", i, p.Decay)
		}
		if s.cfg.Rule == FireGTE && p.Reset >= p.Threshold {
			bad("self-fire", i, "neuron %d reset %v >= threshold %v would self-fire forever under the GTE rule",
				i, p.Reset, p.Threshold)
		}
		if s.cfg.Rule == FireStrict && p.Reset > p.Threshold {
			bad("self-fire", i, "neuron %d reset %v > threshold %v would self-fire forever", i, p.Reset, p.Threshold)
		}
	}

	indeg := make([]int, nn)
	for k, syn := range s.synapses {
		if !inRange(syn.From) || !inRange(syn.To) {
			bad("endpoint", k, "synapse %d endpoints (%d,%d) out of range [0,%d)", k, syn.From, syn.To, nn)
		} else {
			indeg[syn.To]++
		}
		if !finite(syn.Weight) {
			bad("nonfinite", k, "synapse %d weight %v is not finite", k, syn.Weight)
		}
		if syn.Delay < 1 {
			bad("delay-min", k, "synapse %d delay %d below the minimum programmable delay δ = 1", k, syn.Delay)
		}
		if syn.Delay > MaxDelay {
			bad("delay-max", k, "synapse %d delay %d above the maximum programmable delay %d", k, syn.Delay, int64(MaxDelay))
		}
	}

	inducedAt := make([]bool, nn)
	for k, in := range s.induced {
		if !inRange(in.Neuron) {
			bad("induced-range", k, "induced spike %d targets neuron %d of %d", k, in.Neuron, nn)
			continue
		}
		if in.Time < 0 {
			bad("induced-time", k, "induced spike %d scheduled at negative time %d", k, in.Time)
			continue
		}
		inducedAt[in.Neuron] = true
	}

	for k, term := range s.terminals {
		if !inRange(term) {
			bad("terminal-range", k, "terminal %d refers to neuron %d of %d", k, term, nn)
			continue
		}
		if indeg[term] == 0 && !inducedAt[term] {
			warn("terminal-unreachable", k,
				"terminal neuron %d has no incoming synapses and no induced spikes; Run can never halt on it", term)
		}
	}
	return vs
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// errorFromViolations condenses error-level violations into one error.
func errorFromViolations(vs []Violation) error {
	var errs []Violation
	for _, v := range vs {
		if v.Severity == SevError {
			errs = append(errs, v)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	const show = 3
	msg := fmt.Sprintf("snn: invalid network: %s", errs[0].Msg)
	for i := 1; i < len(errs) && i < show; i++ {
		msg += "; " + errs[i].Msg
	}
	if extra := len(errs) - show; extra > 0 {
		msg += fmt.Sprintf("; and %d more", extra)
	}
	return fmt.Errorf("%s", msg)
}
