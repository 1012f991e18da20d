package snn

import (
	"math/bits"
	"slices"
)

// The pending-event queue. Every future time step with scheduled activity
// owns one bucket, drawn from a pool and recycled once the step is
// processed, so a warm network schedules and consumes events without
// touching the heap allocator.
//
// Buckets are found by time through a ring of W slots indexed by
// t & (W-1), where W is the power of two above the largest synaptic delay
// below ringCap (at least 64, one bitmap word): every time held in the
// ring lies in [base, base+W), base being the latest consumed time, so two
// ring residents never share a slot. A two-level occupancy bitmap over the
// ring finds the next pending time without a heap: occ holds one bit per
// slot, summary one bit per nonzero occ word. next reads the occ word at
// base's slot, then scans the summary (at most 32 words at ringCap) from
// the following word, wrapping around.
//
// Times at or beyond base+W — delays past the cap (crossbar "disabled"
// synapses at graph.Inf), injector jitter, far-future InduceSpike calls —
// live in the far map, ordered by a typed min-heap of far times. Whenever
// take advances base, every far time that now falls inside the window
// moves into its ring slot at once, so a time inside the window is always
// in the ring and nowhere else.
//
// A bucket is one 24-byte slice header, its delivery list. What few
// steps carry lives beside the pool, indexed by bucket id: the induced
// spikes in forced, which Run reads only while some are pending, and the
// per-delivery delays in delays, written only while a FlightProbe is
// attached. A bucket new to the pool takes its first slabCap deliveries
// of capacity from a shared slab, and a full delivery list doubles, so a
// fresh run allocates a few dozen slabs instead of growing every bucket
// from empty.

const (
	// ringCap bounds the ring at 2^17 slots (512 KB); larger delays use
	// the far map.
	ringCap = 1 << 17
	// minRing is the narrowest ring: one occupancy word.
	minRing = 64
	// slabCap is the delivery capacity each new bucket takes from the slab.
	slabCap = 4
)

// delivery is a scheduled synaptic arrival.
type delivery struct {
	to     int32
	from   int32
	weight float64
}

// bucket collects the synaptic deliveries of one future time step; its
// induced spikes and flight-probe delays are kept by bucket id in
// Network.forced and Network.delays.
type bucket struct {
	deliveries []delivery
}

// ringSize returns the ring width for the given largest in-cap delay.
func ringSize(maxDelay int64) int {
	w := minRing
	for int64(w) <= maxDelay {
		w <<= 1
	}
	return w
}

// inRing reports whether time t belongs in the ring window.
func (n *Network) inRing(t int64) bool {
	return uint64(t-n.base) < uint64(len(n.ring))
}

// pending reports whether any event is scheduled.
func (n *Network) pending() bool { return n.ringCount > 0 || len(n.times) > 0 }

// bucketID resolves the id of the pending-event bucket for time t >= base,
// creating the bucket on first use.
//
//lint:hotpath called once per scheduled delivery from the step loop
func (n *Network) bucketID(t int64) int32 {
	if n.inRing(t) {
		slot := int(t & int64(len(n.ring)-1))
		id := n.ring[slot]
		if id < 0 {
			id = n.newBucket()
			n.ring[slot] = id
			n.setOcc(slot)
		}
		return id
	}
	id, ok := n.far[t]
	if !ok {
		id = n.newBucket()
		n.far[t] = id
		n.pushTime(t)
	}
	return id
}

// newBucket takes a bucket from the pool, or adds one whose delivery
// capacity comes from the slab.
//
//lint:hotpath called once per newly scheduled time from the step loop
func (n *Network) newBucket() int32 {
	if k := len(n.free); k > 0 {
		id := n.free[k-1]
		n.free = n.free[:k-1]
		return id
	}
	if len(n.slab) < slabCap {
		// Slabs grow with the pool, a quarter of it at a time (at least
		// 64 buckets): a fresh run makes a few dozen of them, and the
		// unused tail of the last one stays small.
		//lint:probealloc amortized reuse, pinned by TestEngineSteadyStateZeroAlloc
		n.slab = make([]delivery, slabCap*max(len(n.buckets)/4, 64))
	}
	//lint:probealloc amortized reuse, pinned by TestEngineSteadyStateZeroAlloc
	n.buckets = append(n.buckets, bucket{deliveries: n.slab[:0:slabCap]})
	n.slab = n.slab[slabCap:]
	return int32(len(n.buckets) - 1)
}

// schedule appends a delivery to b, doubling a full list (append grows
// large slices by only 1.25x).
//
//lint:hotpath called once per scheduled delivery from the step loop
func (b *bucket) schedule(d delivery) {
	if len(b.deliveries) == cap(b.deliveries) {
		//lint:probealloc amortized reuse, pinned by TestEngineSteadyStateZeroAlloc
		b.deliveries = slices.Grow(b.deliveries, len(b.deliveries)+1)
	}
	//lint:probealloc capacity reserved above
	b.deliveries = append(b.deliveries, d)
}

// noteFlightDelay records the synaptic delay of the delivery just
// scheduled in bucket id, for a FlightProbe's antecedents.
//
//lint:hotpath called once per scheduled delivery while a FlightProbe is attached
func (n *Network) noteFlightDelay(id int32, d int64) {
	for int(id) >= len(n.delays) {
		//lint:probealloc amortized reuse, pinned by TestEngineSteadyStateZeroAlloc
		n.delays = append(n.delays, nil)
	}
	//lint:probealloc amortized reuse, pinned by TestEngineSteadyStateZeroAlloc
	n.delays[id] = append(n.delays[id], d)
}

// forcedOf returns the induced spikes pending in bucket id.
func (n *Network) forcedOf(id int32) []int32 {
	if int(id) < len(n.forced) {
		return n.forced[id]
	}
	return nil
}

// takeForced returns the induced spikes of consumed bucket id and empties
// its list, keeping the capacity; once none are pending it reads nothing.
// The result stays valid until the next InduceSpike, which step never
// calls.
//
//lint:hotpath called once per processed step
func (n *Network) takeForced(id int32) []int32 {
	if n.induced == 0 || int(id) >= len(n.forced) {
		return nil
	}
	f := n.forced[id]
	n.forced[id] = f[:0]
	n.induced -= len(f)
	return f
}

// setOcc marks ring slot as occupied.
//
//lint:hotpath called once per newly scheduled ring time
func (n *Network) setOcc(slot int) {
	w := slot >> 6
	if n.occ[w] == 0 {
		n.summary[w>>6] |= 1 << (w & 63)
	}
	n.occ[w] |= 1 << (slot & 63)
	n.ringCount++
}

// clearOcc marks ring slot as free.
//
//lint:hotpath called once per processed ring time
func (n *Network) clearOcc(slot int) {
	w := slot >> 6
	if n.occ[w] &^= 1 << (slot & 63); n.occ[w] == 0 {
		n.summary[w>>6] &^= 1 << (w & 63)
	}
	n.ringCount--
}

// next returns the earliest pending time; pending must hold. Every ring
// time precedes every far time, so the far heap is read only when the
// ring is empty.
//
//lint:hotpath called once per processed step
func (n *Network) next() int64 {
	if n.ringCount == 0 {
		return n.times[0]
	}
	mask := len(n.ring) - 1
	s := int(n.base) & mask
	w := s >> 6
	if word := n.occ[w] >> (s & 63); word != 0 {
		return n.base + int64(bits.TrailingZeros64(word))
	}
	// The first nonzero occ word after w, wrapping round to w itself,
	// whose remaining bits lie below s.
	w = n.nextWord(w + 1)
	slot := w<<6 | bits.TrailingZeros64(n.occ[w])
	return n.base + int64((slot-s)&mask)
}

// nextWord returns the first occ word at or after index p (taken mod the
// word count) that has a bit set; the ring must not be empty.
//
//lint:hotpath called once per processed step that crosses a word
func (n *Network) nextWord(p int) int {
	if p == len(n.occ) {
		p = 0
	}
	sum := n.summary
	i := p >> 6
	if word := sum[i] &^ (1<<(p&63) - 1); word != 0 {
		return i<<6 | bits.TrailingZeros64(word)
	}
	for k := 1; k <= len(sum); k++ {
		j := i + k
		if j >= len(sum) {
			j -= len(sum)
		}
		if sum[j] != 0 {
			return j<<6 | bits.TrailingZeros64(sum[j])
		}
	}
	panic("snn: next on an empty ring")
}

// lookup returns the bucket id holding time t, which must be pending.
func (n *Network) lookup(t int64) int32 {
	if n.inRing(t) {
		return n.ring[t&int64(len(n.ring)-1)]
	}
	return n.far[t]
}

// take removes pending time t, which must be the earliest, and returns
// its bucket id; the caller recycles it with release. When t advances
// base, the far times the window now covers move into the ring.
//
//lint:hotpath called once per processed step
func (n *Network) take(t int64) int32 {
	var id int32
	if n.inRing(t) {
		slot := int(t & int64(len(n.ring)-1))
		id = n.ring[slot]
		n.ring[slot] = -1
		n.clearOcc(slot)
	} else {
		n.popTime()
		id = n.far[t]
		delete(n.far, t)
	}
	if t > n.base {
		n.base = t
		n.migrate()
	}
	return id
}

// migrate moves every far time inside the ring window into its slot.
//
//lint:hotpath called from take whenever base advances
func (n *Network) migrate() {
	for len(n.times) > 0 && n.inRing(n.times[0]) {
		t := n.popTime()
		slot := int(t & int64(len(n.ring)-1))
		n.ring[slot] = n.far[t]
		delete(n.far, t)
		n.setOcc(slot)
	}
}

// release returns a consumed bucket to the pool, keeping its capacity;
// its induced spikes were emptied by takeForced.
//
//lint:hotpath called once per processed step
func (n *Network) release(id int32) {
	b := &n.buckets[id]
	b.deliveries = b.deliveries[:0]
	if int(id) < len(n.delays) {
		n.delays[id] = n.delays[id][:0]
	}
	//lint:probealloc amortized reuse, pinned by TestEngineSteadyStateZeroAlloc
	n.free = append(n.free, id)
}

// ringTimes calls f with every ring slot in use and the time it holds.
func (n *Network) ringTimes(f func(t int64, slot int)) {
	mask := len(n.ring) - 1
	s := int(n.base) & mask
	for i, sum := range n.summary {
		for ; sum != 0; sum &= sum - 1 {
			w := i<<6 | bits.TrailingZeros64(sum)
			for occ := n.occ[w]; occ != 0; occ &= occ - 1 {
				slot := w<<6 | bits.TrailingZeros64(occ)
				f(n.base+int64((slot-s)&mask), slot)
			}
		}
	}
}

// pendingTimes returns every pending time, ring and far, in increasing
// order.
func (n *Network) pendingTimes() []int64 {
	out := make([]int64, 0, n.ringCount+len(n.times))
	n.ringTimes(func(t int64, _ int) { out = append(out, t) })
	out = append(out, n.times...)
	slices.Sort(out)
	return out
}

// resizeRing re-slots every pending bucket into a ring of w slots (the
// largest delay changed since the ring was sized): the ring's entries are
// parked in the far map, then migrate brings back what the new window
// covers.
func (n *Network) resizeRing(w int) {
	n.ringTimes(func(t int64, slot int) {
		n.far[t] = n.ring[slot]
		n.pushTime(t)
	})
	n.ring = make([]int32, w)
	for i := range n.ring {
		n.ring[i] = -1
	}
	n.occ = make([]uint64, w/64)
	n.summary = make([]uint64, (len(n.occ)+63)/64)
	n.ringCount = 0
	n.migrate()
}

// clearQueue drops every pending event and hands the whole pool out in id
// order again, so a re-run after Reset draws the same bucket for the same
// time as the first run did and never regrows one.
func (n *Network) clearQueue() {
	n.ringTimes(func(_ int64, slot int) { n.ring[slot] = -1 })
	clear(n.occ)
	clear(n.summary)
	n.ringCount = 0
	clear(n.far)
	n.times = n.times[:0]
	n.base = 0
	n.free = n.free[:0]
	for id := len(n.buckets) - 1; id >= 0; id-- {
		n.release(int32(id))
	}
	for id := range n.forced {
		n.forced[id] = n.forced[id][:0]
	}
	n.induced = 0
}

// pushTime adds t to the min-heap of far times.
//
//lint:hotpath called once per newly scheduled far time from the step loop
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

// popTime removes and returns the earliest far time.
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
