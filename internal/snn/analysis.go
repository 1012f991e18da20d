package snn

import "fmt"

// Spike-train analysis helpers: the measurement toolkit for reasoning
// about a finished simulation (rates, latencies, inter-spike intervals).
// All of them require Config.Record except FirstSpikeLatencies, which
// uses the always-on first-spike probe.

// FirstSpikeLatencies returns the first-spike time of every neuron
// (-1 where silent) — the readout of every delay-coded algorithm in the
// paper (first spike time = distance).
func (n *Network) FirstSpikeLatencies() []int64 {
	out := make([]int64, n.N())
	for i := range n.cells {
		out[i] = n.cells[i].firstSpike
	}
	return out
}

// SpikeCount returns the number of spikes neuron i emitted (requires
// Config.Record).
func (n *Network) SpikeCount(i int) int { return len(n.Spikes(i)) }

// MeanRate returns neuron i's average firing rate (spikes per step) over
// [from, to], inclusive. Requires Config.Record.
func (n *Network) MeanRate(i int, from, to int64) float64 {
	if to < from {
		panic(fmt.Sprintf("snn: rate window [%d,%d] inverted", from, to))
	}
	count := 0
	for _, t := range n.Spikes(i) {
		if t >= from && t <= to {
			count++
		}
	}
	return float64(count) / float64(to-from+1)
}

// InterSpikeIntervals returns the gaps between consecutive spikes of
// neuron i. Requires Config.Record.
func (n *Network) InterSpikeIntervals(i int) []int64 {
	train := n.Spikes(i)
	if len(train) < 2 {
		return nil
	}
	out := make([]int64, len(train)-1)
	for j := 1; j < len(train); j++ {
		out[j-1] = train[j] - train[j-1]
	}
	return out
}

// ActiveNeurons returns how many neurons fired at least once — the
// "touched silicon" of a run, which together with Stats.Deliveries drives
// the energy estimates.
func (n *Network) ActiveNeurons() int {
	count := 0
	for i := range n.cells {
		if n.cells[i].firstSpike >= 0 {
			count++
		}
	}
	return count
}

// BusiestStep returns the time step with the most spikes and that count
// (requires Config.Record); (-1, 0) for a silent network. Peak activity
// bounds the instantaneous power draw on real hardware.
func (n *Network) BusiestStep() (int64, int) {
	if !n.cfg.Record {
		panic("snn: BusiestStep requires Config.Record")
	}
	counts := make(map[int64]int)
	for i := 0; i < n.N(); i++ {
		for _, t := range n.spikeLog[i] {
			counts[t]++
		}
	}
	best, bestCount := int64(-1), 0
	//lint:deterministic result is order-independent: (min t, max c) wins every order
	for t, c := range counts {
		if c > bestCount || (c == bestCount && t < best) {
			best, bestCount = t, c
		}
	}
	return best, bestCount
}
