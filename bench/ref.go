package main

import "time"

// refNominal is the time, best of three, of the full-size reference
// kernel (fullSizes.refKeys) on the calibration host (see README.md)
// when no other tenant slows it.
const refNominal = 12 * time.Millisecond

// refKernel is a fixed amount of CPU work that shares no code with the
// repository: an event-queue heap, hash-table lookups and updates, and a
// short queue scan, the operations the simulator spends its time on.
// The host's other tenants slow it much as they slow the workloads, so
// a time measured beside it can be scaled to what it would be on a
// quiet host. It allocates nothing once built, so the garbage collector
// never runs inside it and the workload's heap does not change its time.
type refKernel struct {
	heap []uint64
	m    map[uint32]uint32
	lsq  [64]uint64
	keys []uint64
}

// newRefKernel builds a kernel over n keys, a power of two.
func newRefKernel(n int) *refKernel {
	k := &refKernel{heap: make([]uint64, 0, n), m: make(map[uint32]uint32, n/2)}
	x := uint64(88172645463325252) // xorshift64 state
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.keys = append(k.keys, x)
	}
	for i := 0; i < n/2; i++ {
		k.m[uint32(k.keys[i])] = uint32(i)
	}
	return k
}

// time runs the kernel three times and returns the fastest.
func (k *refKernel) time() time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		k.run()
		best = min(best, time.Since(start))
	}
	return best
}

// run does the kernel's work once and returns a checksum of it.
func (k *refKernel) run() uint64 {
	var acc uint64
	half := len(k.keys)/2 - 1
	for rep := 0; rep < 2; rep++ {
		k.heap = k.heap[:0]
		for i, key := range k.keys {
			k.push(key)
			if i&1 == 1 {
				acc += k.pop()
			}
			if v, ok := k.m[uint32(key>>7)]; ok {
				acc += uint64(v)
			}
			k.m[uint32(k.keys[i&half])] += uint32(i)
			slot := k.lsq[key&63]
			for j := int(key>>8) & 15; j < len(k.lsq); j += 4 {
				if k.lsq[j] == slot^key {
					acc++
				}
			}
			k.lsq[i&63] = key
		}
	}
	return acc
}

func (k *refKernel) push(v uint64) {
	h := append(k.heap, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *refKernel) pop() uint64 {
	h := k.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	k.heap = h
	return top
}
