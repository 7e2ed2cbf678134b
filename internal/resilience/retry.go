// Package resilience provides the failure-handling primitives of the
// experiment engine: bounded retry with deterministic seeded
// exponential backoff and jitter, per-attempt deadlines layered on the
// campaign watchdog, and a per-key circuit breaker that converts a
// persistently failing workload into a fast, rendered error instead of
// an aborted campaign.
//
// Everything here is deterministic by construction — backoff jitter
// comes from a seeded splitmix64 stream keyed by (seed, operation
// name, attempt), never from wall-clock or global randomness — so a
// retried campaign remains byte-reproducible under the same seed.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/detrand"
)

// Defaults used when a Retry field is zero.
const (
	DefaultBaseDelay = 50 * time.Millisecond
	DefaultMaxDelay  = 2 * time.Second
)

// Retry bounds and paces re-attempts of one operation. The zero value
// runs the operation exactly once with no deadline.
type Retry struct {
	// Attempts is the total number of tries (1 = no retry). Values
	// below 1 behave as 1.
	Attempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry up to MaxDelay. Zero selects DefaultBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero selects DefaultMaxDelay.
	MaxDelay time.Duration
	// AttemptTimeout, when positive, is the per-attempt deadline: each
	// try gets its own context.WithTimeout child, so one wedged attempt
	// cannot consume the whole retry budget.
	AttemptTimeout time.Duration
	// Seed feeds the deterministic jitter stream.
	Seed uint64
	// OnRetry, when non-nil, observes every scheduled retry before its
	// backoff sleep: the operation name, the attempt that just failed
	// (1-based), the chosen delay, and the error.
	OnRetry func(name string, attempt int, delay time.Duration, err error)
}

// Do runs fn until it succeeds, the attempt budget is spent, or the
// parent context ends. fn receives the per-attempt context (the parent
// bounded by AttemptTimeout). A parent-context cancellation or
// deadline expiry is never retried — shutdown must win immediately,
// without burning the remaining attempt budget — while an
// attempt-deadline expiry is retried like any other failure. The two
// surface identically from fn (both are context.DeadlineExceeded on
// the attempt context), so Do classifies by the parent's own ctx.Err:
// when the parent is done, the returned error always wraps the
// parent's error, and therefore always reads as Transient even if the
// attempt's failure looked like a permanent workload defect — a stage
// torn down mid-shutdown says nothing about the workload and must
// never be cached against it. Otherwise the error of the final
// attempt is returned.
func (r Retry) Do(ctx context.Context, name string, fn func(ctx context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := r.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 1; ; attempt++ {
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if r.AttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, r.AttemptTimeout)
		}
		err = fn(attemptCtx)
		cancel()
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The campaign itself is shutting down or its watchdog
			// expired: hand the failure back immediately, classified
			// by the parent.
			if errors.Is(err, cerr) {
				return err
			}
			return fmt.Errorf("%v (parent context: %w)", err, cerr)
		}
		if attempt >= attempts {
			return err
		}
		delay := r.backoff(name, attempt)
		if r.OnRetry != nil {
			r.OnRetry(name, attempt, delay, err)
		}
		if !sleep(ctx, delay) {
			return err
		}
	}
}

// backoff computes the deterministic jittered delay after the given
// failed attempt (1-based): an exponentially grown base, capped, then
// jittered into [delay/2, delay] by a splitmix64 stream keyed by
// (seed, name, attempt).
func (r Retry) backoff(name string, attempt int) time.Duration {
	base := r.BaseDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	max := r.MaxDelay
	if max <= 0 {
		max = DefaultMaxDelay
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	u := detrand.Hash(r.Seed ^ hashString(name) ^ uint64(attempt)*detrand.Golden)
	return half + time.Duration(u%uint64(half+1))
}

// sleep waits for d or the context, reporting whether the full delay
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// hashString is FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Transient reports whether err stems from cancellation, a watchdog
// deadline, or an open circuit breaker — failures that describe the
// run, not the workload, and therefore must never be cached against
// the workload (a later caller retries instead).
func Transient(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrOpen)
}
