package snn

import "fmt"

// DenseRun simulates the network with a straightforward step-by-step
// (non-event-driven) engine that walks every time step from 0 to maxTime
// and evaluates every neuron at every step, exactly as Definitions 1-2
// read. It exists as an executable specification: the production
// event-driven engine (Run) must produce identical spike trains, which
// the test suite checks on randomized networks.
//
// DenseRun consumes the same topology but none of the incremental state:
// call it on a freshly built or Reset network. It returns the full spike
// raster: raster[t] lists the neurons that fired at time t.
//
// Unlike Run, DenseRun costs O(maxTime · (n + deliveries)) and is meant
// for small validation networks only.
func (n *Network) DenseRun(maxTime int64) [][]int {
	if n.now != 0 || n.stats != (Stats{}) {
		panic("snn: DenseRun requires a fresh or Reset network")
	}
	if maxTime < 0 {
		panic(fmt.Sprintf("snn: negative horizon %d", maxTime))
	}

	nn := len(n.cells)
	voltage := make([]float64, nn)
	for i := range voltage {
		voltage[i] = n.Params(i).Reset
	}

	// forced[t] = induced spikes; synIn[t mod W][i] accumulates arrivals.
	n.compact()
	times := n.pendingTimes()
	forced := make(map[int64][]int32, len(times))
	maxDelay := int64(1)
	for _, s := range n.syn {
		maxDelay = max(maxDelay, n.delayOf(s))
	}
	for _, t := range times {
		id := n.lookup(t)
		if len(n.buckets[id].deliveries) > 0 {
			panic("snn: DenseRun cannot resume pending deliveries")
		}
		forced[t] = append(forced[t], n.forcedOf(id)...)
	}

	// A delivery past maxTime is dropped, so the window need not cover a
	// longer delay.
	window := min(maxDelay, maxTime) + 1
	synIn := make([][]float64, window)
	for i := range synIn {
		synIn[i] = make([]float64, nn)
	}

	raster := make([][]int, maxTime+1)
	for t := int64(0); t <= maxTime; t++ {
		slot := synIn[t%window]
		inducedNow := make(map[int32]bool, len(forced[t]))
		for _, i := range forced[t] {
			inducedNow[i] = true
		}
		var fired []int
		for i := 0; i < nn; i++ {
			p := n.Params(i)
			vhat := voltage[i] - (voltage[i]-p.Reset)*p.Decay + slot[i]
			cross := vhat >= p.Threshold
			if n.cfg.Rule == FireStrict {
				cross = vhat > p.Threshold
			}
			if inducedNow[int32(i)] || cross {
				fired = append(fired, i)
				voltage[i] = p.Reset
			} else {
				voltage[i] = vhat
			}
			slot[i] = 0
		}
		for _, i := range fired {
			for _, s := range n.fanout(int32(i)) {
				if d := n.delayOf(s); d <= maxTime-t {
					synIn[(t+d)%window][s.to] += s.weight
				}
			}
		}
		raster[t] = fired
	}
	return raster
}
