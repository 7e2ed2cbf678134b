// Package detrand is the repository's one source of seeded randomness:
// a splitmix64 stream and the "seed:count:window" fault-plan grammar
// built on it. Everything here is a pure function of its arguments —
// no wall clock, no global state — so a fault plan, a retry backoff or
// a sampled design-space grid is reproducible from its seed alone.
package detrand

import "fmt"

// Golden is splitmix64's state increment (2^64 / φ).
const Golden = 0x9E3779B97F4A7C15

// The finalizer's multipliers. samplerMul3 is the third multiplier the
// explorer's grid sampler has always used in place of mul3; sampled
// frontiers are identified by (grid, seed), so that stream keeps it.
const (
	mul2        = 0xBF58476D1CE4E5B9
	mul3        = 0x94D049BB133111EB
	samplerMul3 = 0x94D4B74F9A57F4B7
)

// Stream is a splitmix64 generator.
type Stream struct{ state, mul3 uint64 }

// New returns the splitmix64 stream seeded with seed.
func New(seed uint64) Stream { return Stream{state: seed, mul3: mul3} }

// NewSampler returns the explorer's grid-sampling stream, which differs
// from New's in the finalizer's third multiplier (see samplerMul3).
func NewSampler(seed uint64) Stream { return Stream{state: seed, mul3: samplerMul3} }

// Next returns the stream's next value.
func (s *Stream) Next() uint64 {
	s.state += Golden
	z := s.state
	z = (z ^ (z >> 30)) * mul2
	z = (z ^ (z >> 27)) * s.mul3
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n); n == 0 yields 0. The slight modulo
// bias is irrelevant for fault placement.
func (s *Stream) Intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return s.Next() % n
}

// Hash returns the first value of the stream seeded with x: a cheap,
// high-quality 64-bit mix.
func Hash(x uint64) uint64 {
	s := New(x)
	return s.Next()
}

// Mix hashes (seed, i) into an independent derived value, for
// per-index decisions that need no sequential generator state.
func Mix(seed, i uint64) uint64 { return Hash(seed ^ (i+1)*Golden) }

// Fault is one planned injection of an ordinal fault plan: the Op-th
// operation (0-based) of the fault's operation class fails with Kind.
type Fault[K ~uint8] struct {
	Kind K
	Op   uint64
}

func (f Fault[K]) String() string { return fmt.Sprintf("%v@op%d", f.Kind, f.Op) }

// Plan is a seeded set of ordinal faults.
type Plan[K ~uint8] struct {
	Seed   uint64
	Faults []Fault[K]
}

// NewPlan expands seed into n faults, each addressing an ordinal in
// [0, window) with a kind drawn uniformly from [0, kinds).
func NewPlan[K ~uint8](seed uint64, n int, kinds K, window uint64) *Plan[K] {
	if window == 0 {
		window = 1
	}
	p := &Plan[K]{Seed: seed, Faults: make([]Fault[K], 0, n)}
	s := New(seed)
	for i := 0; i < n; i++ {
		kind := K(s.Next() % uint64(kinds))
		p.Faults = append(p.Faults, Fault[K]{Kind: kind, Op: s.Next() % window})
	}
	return p
}

// ParsePlan expands a "seed:count:window" flag value, the grammar of
// -store-faults and -net-faults. pkg prefixes the error.
func ParsePlan[K ~uint8](pkg, spec string, kinds K) (*Plan[K], error) {
	var seed, window uint64
	var n int
	if _, err := fmt.Sscanf(spec, "%d:%d:%d", &seed, &n, &window); err != nil || n < 0 {
		return nil, fmt.Errorf(`%s: bad plan %q, want "seed:count:window" like "7:4:64"`, pkg, spec)
	}
	return NewPlan(seed, n, kinds, window), nil
}
