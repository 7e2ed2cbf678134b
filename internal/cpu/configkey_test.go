package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
)

// configKey is Config without its String method, so %+v renders every
// field: the rendering Key reproduces byte for byte.
type configKey Config

// TestConfigKeyMatchesFmt holds Key to fmt's %+v rendering, under
// which every store and journal key was written, on the Figure 8
// configurations, the (N+0) and (N+M,penP) grid arld serves, and a
// configuration with every field set to a distinct value.
func TestConfigKeyMatchesFmt(t *testing.T) {
	configs := Figure8Configs()
	for n := 1; n <= 4; n++ {
		configs = append(configs, Conventional(n, 2))
		for m := 1; m <= 3; m++ {
			for _, p := range []int{1, 4, 16} {
				configs = append(configs, Decoupled(n, m).WithPenalty(p))
			}
		}
	}
	configs = append(configs, Config{}, Config{
		Name: "every field", IssueWidth: 1, ROBSize: 2, LSQSize: 3, LVAQSize: 4,
		Partitions: []cache.PartitionConfig{
			{Name: "P0", SizeBytes: 5, LineBytes: 6, Assoc: 7, HitLatency: 8, Ports: 9},
			{Name: "P1", SizeBytes: 10, LineBytes: 11, Assoc: 12, HitLatency: 13, Ports: -14},
		},
		SteerPolicy: "pattern", IntALU: 15, FPALU: 16, IntMulDiv: 17, FPMulDiv: 18,
		MispredictPenalty: 19, FastForward: true,
	})
	for _, c := range configs {
		if got, want := c.Key(), fmt.Sprintf("%+v", configKey(c)); got != want {
			t.Errorf("Key() of %s\n got %s\nwant %s", c.Name, got, want)
		}
	}
	// Key names every field: one added to either struct must be
	// rendered (and given a distinct value above) before this passes.
	if n := reflect.TypeOf(Config{}).NumField(); n != 13 {
		t.Errorf("Config has %d fields; Key renders 13", n)
	}
	if n := reflect.TypeOf(cache.PartitionConfig{}).NumField(); n != 6 {
		t.Errorf("cache.PartitionConfig has %d fields; Key renders 6", n)
	}
}
