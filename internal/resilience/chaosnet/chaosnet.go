// Package chaosnet is the deterministic network-fault injection layer
// for the arld fleet: a seeded proxy that fails exact network events —
// a latency spike, a connection reset, a half-open partition, a
// truncated response — according to a splitmix64 plan, mirroring
// store/faultfs so network-chaos runs reproduce from a single seed the
// same way storage-chaos runs do.
//
// Faults are addressed by (kind, per-class event ordinal). There are
// two event classes: accepted connections (the server side, wrapped by
// Listen) and HTTP round trips (the client side, wrapped by
// Transport). The plan entry {Kind: Reset, Op: 3} resets the fourth
// faultable event the wrapped endpoint sees. One Injector serves one
// endpoint — arld wraps its listener, arlworker wraps its transport —
// so a plan spec names the same events on whichever side it lands.
// Every injected failure wraps ErrInjected, and each address fires at
// most once: injected faults model transient network weather, not a
// cut cable, so retries succeed.
//
// The half-open kind is the nasty one: the request is delivered and
// processed but the response never comes back, so the caller cannot
// tell a lost request from a lost reply and must retry into
// at-least-once delivery. That is exactly the duplicate-completion
// path the coordinator's fencing tokens and the store's memoization
// have to absorb.
package chaosnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/detrand"
)

// ErrInjected marks every fault this package injects; test with
// errors.Is. Reset faults also carry ECONNRESET in the chain so code
// classifying by errno sees the real thing.
var ErrInjected = errors.New("chaosnet: injected fault")

// Kind classifies an injected network fault.
type Kind uint8

const (
	// Latency delays one event by the injector's Delay: the GC-pause /
	// congested-link model. The event then proceeds normally.
	Latency Kind = iota
	// Reset kills one event with a connection reset before any byte of
	// the response is delivered.
	Reset
	// HalfOpen delivers the request but loses the response: the far
	// side processes the event, the near side times out — the
	// at-least-once ambiguity every retry layer must survive.
	HalfOpen
	// Truncate cuts the response off mid-body, leaving the reader with
	// an unexpected EOF.
	Truncate

	numKinds
)

var kindNames = [numKinds]string{"latency", "reset", "half-open", "truncate"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault is one planned injection: the Op-th faultable event (0-based)
// of the endpoint's class fails with the fault's kind. All four kinds
// share one ordinal space per class, so {Reset, Op: 5} and {Latency,
// Op: 5} address the same event.
type Fault = detrand.Fault[Kind]

// Plan is a seeded set of network faults.
type Plan = detrand.Plan[Kind]

// NewPlan expands seed into n faults, each addressing an ordinal in
// [0, window) of a kind drawn uniformly — a pure function of its
// arguments, so a chaos run is reproducible from (seed, n, window).
func NewPlan(seed uint64, n int, window uint64) *Plan {
	return detrand.NewPlan(seed, n, numKinds, window)
}

// ParsePlan renders a "seed:count:window" flag value into a plan —
// the -net-faults CLI surface, same grammar as -store-faults.
func ParsePlan(spec string) (*Plan, error) {
	return detrand.ParsePlan("chaosnet", spec, numKinds)
}

// The event classes that draw ordinals: accepted connections and HTTP
// round trips.
const (
	classConn = iota
	classRT
	numClasses
)

// DefaultDelay is the Latency spike length when the Injector's Delay
// is zero.
const DefaultDelay = 250 * time.Millisecond

// Injector realizes a Plan against the network events of one endpoint.
// Safe for concurrent use; per-class ordinals are atomic, so the set
// of injected faults is stable under concurrency even when which
// caller draws each ordinal is not.
type Injector struct {
	Delay time.Duration // Latency spike length; 0 = DefaultDelay
	log   func(format string, args ...any)

	mu      sync.Mutex
	pending map[Kind]map[uint64]bool
	ops     [numClasses]atomic.Uint64
	fired   atomic.Uint64
}

// New builds an injector from the plan. log (optional) receives one
// line per injected fault.
func New(plan *Plan, log func(format string, args ...any)) *Injector {
	inj := &Injector{log: log, pending: make(map[Kind]map[uint64]bool)}
	if plan != nil {
		for _, flt := range plan.Faults {
			if inj.pending[flt.Kind] == nil {
				inj.pending[flt.Kind] = make(map[uint64]bool)
			}
			inj.pending[flt.Kind][flt.Op] = true
		}
	}
	return inj
}

// Fired reports how many planned faults have been injected so far.
func (inj *Injector) Fired() uint64 { return inj.fired.Load() }

func (inj *Injector) delay() time.Duration {
	if inj.Delay > 0 {
		return inj.Delay
	}
	return DefaultDelay
}

// trip advances class's ordinal and reports which kind (if any) is
// planned for this event. Each address fires once.
func (inj *Injector) trip(class int) (Kind, bool) {
	op := inj.ops[class].Add(1) - 1
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for kind := Kind(0); kind < numKinds; kind++ {
		if inj.pending[kind][op] {
			delete(inj.pending[kind], op)
			inj.fired.Add(1)
			if inj.log != nil {
				inj.log("chaosnet: injecting %s@op%d", kind, op)
			}
			return kind, true
		}
	}
	return 0, false
}

func injected(kind Kind) error {
	if kind == Reset {
		return fmt.Errorf("%w: %s: %w", ErrInjected, kind, syscall.ECONNRESET)
	}
	return fmt.Errorf("%w: %s", ErrInjected, kind)
}

// Listen wraps a listener: each accepted connection draws one ordinal
// from the connection class and, when planned, misbehaves per its
// kind. A nil injector returns inner unchanged.
func Listen(inner net.Listener, inj *Injector) net.Listener {
	if inj == nil {
		return inner
	}
	return &listener{Listener: inner, inj: inj}
}

type listener struct {
	net.Listener
	inj *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return conn, err
	}
	kind, ok := l.inj.trip(classConn)
	if !ok {
		return conn, nil
	}
	switch kind {
	case Reset:
		conn.Close()
		return &faultConn{Conn: conn, kind: Reset}, nil
	case Latency:
		return &faultConn{Conn: conn, kind: Latency, delay: l.inj.delay()}, nil
	case HalfOpen:
		return &faultConn{Conn: conn, kind: HalfOpen}, nil
	default: // Truncate
		return &faultConn{Conn: conn, kind: Truncate, budget: truncateAfter}, nil
	}
}

// truncateAfter is how many response bytes a Truncate connection lets
// through before cutting the stream — enough for the status line and
// some headers, never a full JSON body.
const truncateAfter = 64

// faultConn realizes one connection-scoped fault.
type faultConn struct {
	net.Conn
	kind   Kind
	delay  time.Duration // Latency: sleep before the first Read
	slept  atomic.Bool
	budget int // Truncate: response bytes allowed through
	mu     sync.Mutex
	cut    bool
}

func (c *faultConn) Read(p []byte) (int, error) {
	switch c.kind {
	case Reset:
		return 0, injected(Reset)
	case Latency:
		if c.slept.CompareAndSwap(false, true) {
			time.Sleep(c.delay)
		}
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	switch c.kind {
	case Reset:
		return 0, injected(Reset)
	case HalfOpen:
		// The peer never hears back, but the local writer sees success:
		// a half-open partition, not an error the server could react to.
		return len(p), nil
	case Truncate:
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.cut {
			return 0, injected(Truncate)
		}
		if len(p) > c.budget {
			n, _ := c.Conn.Write(p[:c.budget])
			c.cut = true
			c.Conn.Close()
			return n, injected(Truncate)
		}
		c.budget -= len(p)
	}
	return c.Conn.Write(p)
}

// Transport wraps an http.RoundTripper: each round trip draws one
// ordinal from the round-trip class. A nil injector returns inner
// unchanged (nil inner means http.DefaultTransport).
func Transport(inner http.RoundTripper, inj *Injector) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	if inj == nil {
		return inner
	}
	return &transport{inner: inner, inj: inj}
}

type transport struct {
	inner http.RoundTripper
	inj   *Injector
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind, ok := t.inj.trip(classRT)
	if !ok {
		return t.inner.RoundTrip(req)
	}
	switch kind {
	case Latency:
		time.Sleep(t.inj.delay())
		return t.inner.RoundTrip(req)
	case Reset:
		// The request is never delivered.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, injected(Reset)
	case HalfOpen:
		// Deliver the request, lose the response: the far side did the
		// work, the caller cannot know.
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, injected(HalfOpen)
	default: // Truncate
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncateBody{inner: resp.Body, budget: truncateAfter}
		return resp, nil
	}
}

// truncateBody cuts a response body off after its byte budget with an
// injected unexpected-EOF.
type truncateBody struct {
	inner  io.ReadCloser
	budget int
}

func (b *truncateBody) Read(p []byte) (int, error) {
	if b.budget <= 0 {
		return 0, fmt.Errorf("%w: %s: %w", ErrInjected, Truncate, io.ErrUnexpectedEOF)
	}
	if len(p) > b.budget {
		p = p[:b.budget]
	}
	n, err := b.inner.Read(p)
	b.budget -= n
	return n, err
}

func (b *truncateBody) Close() error { return b.inner.Close() }
