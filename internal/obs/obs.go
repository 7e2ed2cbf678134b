// Package obs is the simulator's structured observability layer: a
// typed metrics registry and a cycle-event tracer, both designed to be
// threaded through the timing core and the experiment harness without
// taxing uninstrumented runs.
//
// The two halves answer the two questions the paper's evaluation turns
// on:
//
//   - The Registry answers "how much": named, labeled Counter / Gauge /
//     Hist handles replace the ad-hoc counter fields scattered across
//     internal/cpu, internal/cache and internal/core as the reporting
//     surface. A Snapshot renders to text, to JSON, and to
//     the machine-readable results/*.metrics.json artifact every
//     reporting CLI emits (validated against the embedded JSON schema,
//     see ValidateMetrics).
//
//   - The Tracer answers "where the cycles went": subsystems emit
//     per-op pipeline Events (dispatch, queue enter, issue, cache
//     access, port stall, misprediction detect/cancel/replay, ...)
//     that the Ring tracer samples and WriteChromeTrace exports as a
//     Chrome trace-event / Perfetto JSON timeline, so a single
//     workload's pipeline opens in chrome://tracing or ui.perfetto.dev.
//
// Instrumentation is opt-in at construction time (the unified
// New(Config, ...Option) constructors take WithTracer / WithRegistry
// options); a simulation built without them runs the exact
// uninstrumented code path, which the BenchmarkSimNoObs /
// BenchmarkSimNopObs guard pins at <2% overhead.
package obs

import "sort"

// Labels attaches dimensions to a metric ("workload", "config",
// "cache", ...). A nil map is the empty label set. Label maps are
// copied at registration, so callers may reuse and mutate theirs.
type Labels map[string]string

// clone copies l so registry entries own their label sets.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// With returns a copy of l extended (or overridden) by extra.
func (l Labels) With(extra Labels) Labels {
	out := make(Labels, len(l)+len(extra))
	for k, v := range l {
		out[k] = v
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// key serializes the label set in sorted order for map identity.
func (l Labels) key() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := make([]byte, 0, 32)
	for _, k := range keys {
		b = append(b, 0xff)
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, l[k]...)
	}
	return string(b)
}
