package cpu

import (
	"errors"
	"strings"
	"testing"
)

// TestEngineSelfChecks corrupts the pipeline bookkeeping before the
// cycle loop starts and expects the engine to stop with ErrInvariant
// instead of mis-modelling.
func TestEngineSelfChecks(t *testing.T) {
	tr := trace(t, loopSrc)
	cases := []struct {
		name    string
		cfg     Config
		corrupt func(s *simulator)
		want    string
	}{
		{"store index head", Conventional(2, 2), func(s *simulator) {
			// A phantom store older than the trace: the first store to
			// commit no longer heads the LSQ store index.
			s.lsq.stores = append(s.lsq.stores, storeRec{seq: -1, word: ^uint32(0)})
		}, "LSQ store index head -1"},
		{"unknown address left behind", Decoupled(3, 3), func(s *simulator) {
			s.lvaq.unknown = append(s.lvaq.unknown, 1<<40)
		}, "1 unknown addresses in the LVAQ"},
		{"event left behind", Decoupled(3, 3), func(s *simulator) {
			s.events.push(event{cycle: 1 << 40, kind: evComplete})
		}, "run ended with 1 events"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sim.newSimulator(tr)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(s)
			_, err = s.simulate()
			if !errors.Is(err, ErrInvariant) {
				t.Fatalf("err = %v, want ErrInvariant", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want it to mention %q", err, tc.want)
			}
		})
	}
}
