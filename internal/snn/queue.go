package snn

// The pending-event queue. Every future time step with scheduled activity
// owns one bucket, drawn from a pool and recycled once the step is
// processed, so a warm network schedules and consumes events without
// touching the heap allocator. A typed binary min-heap orders the pending
// times (each time appears once). Buckets are found by time through a
// ring of W slots indexed by t & (W-1), where W is the power of two above
// the largest synaptic delay below ringCap: every time held in the ring
// lies in [base, base+W), base being the latest consumed time, so two
// ring residents never share a slot. Times at or beyond base+W — delays
// past the cap (crossbar "disabled" synapses at graph.Inf), injector
// jitter, far-future InduceSpike calls — live in the small far map and
// move into the ring lazily, the first time something else is scheduled
// for them once they fall inside the window.

// ringCap bounds the ring at 2^17 slots (512 KB); larger delays use the
// far map.
const ringCap = 1 << 17

// delivery is a scheduled synaptic arrival.
type delivery struct {
	to     int32
	from   int32
	weight float64
}

// bucket collects everything that happens at one future time step.
// delays carries per-delivery synaptic delays for provenance capture; it
// is populated (index-aligned with deliveries) only while a FlightProbe
// is attached, so the recorder-off path allocates nothing extra.
type bucket struct {
	deliveries []delivery
	forced     []int32
	delays     []int64
}

// ringSize returns the ring width for the given largest in-cap delay.
func ringSize(maxDelay int64) int {
	w := 2
	for int64(w) <= maxDelay {
		w <<= 1
	}
	return w
}

// inRing reports whether time t belongs in the ring window.
func (n *Network) inRing(t int64) bool {
	return uint64(t-n.base) < uint64(len(n.ring))
}

// bucketAt resolves the pending-event bucket for time t, creating it on
// first use.
//
//lint:hotpath called once per scheduled delivery from the step loop
func (n *Network) bucketAt(t int64) *bucket {
	if n.inRing(t) {
		slot := t & int64(len(n.ring)-1)
		id := n.ring[slot]
		if id < 0 {
			if far, ok := n.far[t]; ok {
				delete(n.far, t)
				id = far
			} else {
				id = n.newBucket(t)
			}
			n.ring[slot] = id
		}
		return &n.buckets[id]
	}
	id, ok := n.far[t]
	if !ok {
		id = n.newBucket(t)
		n.far[t] = id
	}
	return &n.buckets[id]
}

// newBucket takes a bucket from the pool and enqueues time t.
//
//lint:hotpath called once per newly scheduled time from the step loop
func (n *Network) newBucket(t int64) int32 {
	n.pushTime(t)
	if k := len(n.free); k > 0 {
		id := n.free[k-1]
		n.free = n.free[:k-1]
		return id
	}
	//lint:probealloc amortized reuse, pinned by TestEngineSteadyStateZeroAlloc
	n.buckets = append(n.buckets, bucket{})
	return int32(len(n.buckets) - 1)
}

// lookup returns the bucket id holding time t, which must be pending.
func (n *Network) lookup(t int64) int32 {
	if n.inRing(t) {
		if id := n.ring[t&int64(len(n.ring)-1)]; id >= 0 {
			return id
		}
	}
	return n.far[t]
}

// take removes pending time t's bucket from the ring or far map and
// returns its id; the caller recycles it with release.
func (n *Network) take(t int64) int32 {
	if n.inRing(t) {
		slot := t & int64(len(n.ring)-1)
		if id := n.ring[slot]; id >= 0 {
			n.ring[slot] = -1
			return id
		}
	}
	id := n.far[t]
	delete(n.far, t)
	return id
}

// release returns a consumed bucket to the pool, keeping its capacity.
//
//lint:hotpath called once per processed step
func (n *Network) release(id int32) {
	b := &n.buckets[id]
	b.deliveries = b.deliveries[:0]
	b.forced = b.forced[:0]
	b.delays = b.delays[:0]
	//lint:probealloc amortized reuse, pinned by TestEngineSteadyStateZeroAlloc
	n.free = append(n.free, id)
}

// resizeRing re-slots every pending bucket into a ring of w slots (the
// largest delay changed since the ring was sized).
func (n *Network) resizeRing(w int) {
	ids := make([]int32, len(n.times))
	for k, t := range n.times {
		ids[k] = n.take(t)
	}
	n.ring = make([]int32, w)
	for i := range n.ring {
		n.ring[i] = -1
	}
	for k, t := range n.times {
		if n.inRing(t) {
			n.ring[t&int64(w-1)] = ids[k]
		} else {
			n.far[t] = ids[k]
		}
	}
}

// clearQueue drops every pending event and hands the whole pool out in id
// order again, so a re-run after Reset draws the same bucket for the same
// time as the first run did and never regrows one.
func (n *Network) clearQueue() {
	for _, t := range n.times {
		n.take(t)
	}
	n.times = n.times[:0]
	n.base = 0
	n.free = n.free[:0]
	for id := len(n.buckets) - 1; id >= 0; id-- {
		n.release(int32(id))
	}
}

// pushTime adds t to the min-heap of pending times.
//
//lint:hotpath called once per newly scheduled time from the step loop
func (n *Network) pushTime(t int64) {
	//lint:probealloc amortized reuse, pinned by TestEngineSteadyStateZeroAlloc
	h := append(n.times, t)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= t {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = t
	n.times = h
}

// popTime removes and returns the earliest pending time.
func (n *Network) popTime() int64 {
	h := n.times
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if len(h) > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if last <= h[c] {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	n.times = h
	return top
}
