package snn

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Netlist serialization: a plain-text interchange format for spiking
// networks, the artifact a neuromorphic toolchain would hand to hardware
// (the paper's O(m)-time "loading the graph into the SNA" step works on
// exactly this kind of description). The format is line-oriented:
//
//	snn v1 <gte|strict> <record:0|1>
//	neurons <n>
//	<reset> <threshold> <decay>           # one line per neuron
//	synapses <m>
//	<from> <to> <weight> <delay>          # one line per synapse
//	induced <k>
//	<time> <neuron>                       # scheduled input spikes
//	terminals <j> <any|all>
//	<neuron>                              # one line per terminal
//
// '#' starts a comment; blank lines are ignored. Dynamic state (voltages,
// spike history) is not serialized: a read network is freshly built.

// WriteNetlist serializes the network's structure, pending induced
// spikes, and terminal configuration.
func WriteNetlist(w io.Writer, n *Network) error {
	bw := bufio.NewWriter(w)
	rule := "gte"
	if n.Rule() == FireStrict {
		rule = "strict"
	}
	record := 0
	if n.Recording() {
		record = 1
	}
	fmt.Fprintf(bw, "snn v1 %s %d\n", rule, record)
	fmt.Fprintf(bw, "neurons %d\n", n.N())
	for i := 0; i < n.N(); i++ {
		p := n.Params(i)
		fmt.Fprintf(bw, "%s %s %s\n", ftoa(p.Reset), ftoa(p.Threshold), ftoa(p.Decay))
	}
	fmt.Fprintf(bw, "synapses %d\n", n.Synapses())
	for i := 0; i < n.N(); i++ {
		for _, s := range n.OutSynapses(i) {
			fmt.Fprintf(bw, "%d %d %s %d\n", i, s.To, ftoa(s.Weight), s.Delay)
		}
	}
	induced := n.InducedSpikes()
	count := 0
	times := make([]int64, 0, len(induced))
	//lint:deterministic keys are collected here and sorted below
	for t, ids := range induced {
		count += len(ids)
		times = append(times, t)
	}
	fmt.Fprintf(bw, "induced %d\n", count)
	// Canonical order: ascending time, then ascending neuron id, so the
	// same network always serializes to byte-identical output.
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, t := range times {
		ids := append([]int(nil), induced[t]...)
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(bw, "%d %d\n", t, id)
		}
	}
	terms, all := n.Terminals()
	mode := "any"
	if all {
		mode = "all"
	}
	fmt.Fprintf(bw, "terminals %d %s\n", len(terms), mode)
	for _, t := range terms {
		fmt.Fprintf(bw, "%d\n", t)
	}
	return bw.Flush()
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// ReadNetlist parses the WriteNetlist format into a fresh network. The
// parsed structure is statically verified against the Definition 1-2
// invariants (see Validate) before any network is built, so a malformed
// netlist — delay 0, decay outside [0,1], reset >= threshold, an
// out-of-range synapse endpoint — yields an error, never a panic.
func ReadNetlist(r io.Reader) (*Network, error) {
	spec, err := parseNetlist(r)
	if err != nil {
		return nil, err
	}
	if err := errorFromViolations(validateSpec(spec)); err != nil {
		return nil, err
	}
	return spec.build(), nil
}

// NetlistInfo summarizes a parsed netlist for tooling.
type NetlistInfo struct {
	Neurons   int
	Synapses  int
	Induced   int
	Terminals int
	Rule      FireRule
	Record    bool
}

// LintNetlist parses a netlist without building a network and returns its
// summary plus every static violation, error-level and warning-level (the
// `spaabench validate` entry point). The error return is non-nil only for
// syntactic failures; semantic problems arrive as Violations.
func LintNetlist(r io.Reader) (NetlistInfo, []Violation, error) {
	spec, err := parseNetlist(r)
	if err != nil {
		return NetlistInfo{}, nil, err
	}
	info := NetlistInfo{
		Neurons:   len(spec.neurons),
		Synapses:  len(spec.synapses),
		Induced:   len(spec.induced),
		Terminals: len(spec.terminals),
		Rule:      spec.cfg.Rule,
		Record:    spec.cfg.Record,
	}
	return info, validateSpec(spec), nil
}

// build constructs the network through the public API; the spec must have
// passed validateSpec with no errors first (so no builder call can panic).
func (s *netSpec) build() *Network {
	net := NewNetwork(s.cfg)
	net.Grow(len(s.neurons), len(s.synapses))
	for _, p := range s.neurons {
		net.AddNeuron(p)
	}
	for _, syn := range s.synapses {
		net.Connect(syn.From, syn.To, syn.Weight, syn.Delay)
	}
	for _, in := range s.induced {
		net.InduceSpike(in.Neuron, in.Time)
	}
	for _, t := range s.terminals {
		net.SetTerminal(t)
	}
	if s.terminalAll {
		net.RequireAllTerminals()
	}
	return net
}

// parseNetlist reads the line-oriented format into the neutral structural
// form. Only syntax is rejected here; semantic checks live in validateSpec.
func parseNetlist(r io.Reader) (*netSpec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	next := func() (string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return line, nil
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}

	header, err := next()
	if err != nil {
		return nil, fmt.Errorf("snn: netlist header: %w", err)
	}
	var ruleStr string
	var record int
	if _, err := fmt.Sscanf(header, "snn v1 %s %d", &ruleStr, &record); err != nil {
		return nil, fmt.Errorf("snn: bad netlist header %q: %w", header, err)
	}
	spec := &netSpec{cfg: Config{Record: record != 0}}
	switch ruleStr {
	case "gte":
		spec.cfg.Rule = FireGTE
	case "strict":
		spec.cfg.Rule = FireStrict
	default:
		return nil, fmt.Errorf("snn: unknown fire rule %q", ruleStr)
	}

	var count int
	line, err := next()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(line, "neurons %d", &count); err != nil || count < 0 {
		return nil, fmt.Errorf("snn: bad neurons line %q", line)
	}
	for i := 0; i < count; i++ {
		line, err := next()
		if err != nil {
			return nil, fmt.Errorf("snn: neuron %d: %w", i, err)
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("snn: bad neuron line %q", line)
		}
		var p Neuron
		if p.Reset, err = strconv.ParseFloat(f[0], 64); err != nil {
			return nil, fmt.Errorf("snn: neuron %d reset: %w", i, err)
		}
		if p.Threshold, err = strconv.ParseFloat(f[1], 64); err != nil {
			return nil, fmt.Errorf("snn: neuron %d threshold: %w", i, err)
		}
		if p.Decay, err = strconv.ParseFloat(f[2], 64); err != nil {
			return nil, fmt.Errorf("snn: neuron %d decay: %w", i, err)
		}
		spec.neurons = append(spec.neurons, p)
	}

	line, err = next()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(line, "synapses %d", &count); err != nil || count < 0 {
		return nil, fmt.Errorf("snn: bad synapses line %q", line)
	}
	for i := 0; i < count; i++ {
		line, err := next()
		if err != nil {
			return nil, fmt.Errorf("snn: synapse %d: %w", i, err)
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("snn: bad synapse line %q", line)
		}
		from, err1 := strconv.Atoi(f[0])
		to, err2 := strconv.Atoi(f[1])
		weight, err3 := strconv.ParseFloat(f[2], 64)
		delay, err4 := strconv.ParseInt(f[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("snn: bad synapse line %q", line)
		}
		spec.synapses = append(spec.synapses, specSynapse{From: from, To: to, Weight: weight, Delay: delay})
	}

	line, err = next()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(line, "induced %d", &count); err != nil || count < 0 {
		return nil, fmt.Errorf("snn: bad induced line %q", line)
	}
	for i := 0; i < count; i++ {
		line, err := next()
		if err != nil {
			return nil, fmt.Errorf("snn: induced %d: %w", i, err)
		}
		var t int64
		var id int
		if _, err := fmt.Sscanf(line, "%d %d", &t, &id); err != nil {
			return nil, fmt.Errorf("snn: bad induced line %q", line)
		}
		spec.induced = append(spec.induced, specInduced{Time: t, Neuron: id})
	}

	line, err = next()
	if err != nil {
		return nil, err
	}
	var mode string
	if _, err := fmt.Sscanf(line, "terminals %d %s", &count, &mode); err != nil || count < 0 {
		return nil, fmt.Errorf("snn: bad terminals line %q", line)
	}
	for i := 0; i < count; i++ {
		line, err := next()
		if err != nil {
			return nil, fmt.Errorf("snn: terminal %d: %w", i, err)
		}
		id, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("snn: bad terminal line %q", line)
		}
		spec.terminals = append(spec.terminals, id)
	}
	switch mode {
	case "any":
	case "all":
		spec.terminalAll = true
	default:
		return nil, fmt.Errorf("snn: unknown terminal mode %q", mode)
	}
	return spec, nil
}
