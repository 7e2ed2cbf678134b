package core

import "testing"

// TestARPTOccupancy checks the Table 3 count on sized and unlimited
// tables of both counter widths: distinct trained entries count once
// however often they are trained, an entry trained back to a zero
// counter stays occupied, and a soft-error Flip never changes it.
func TestARPTOccupancy(t *testing.T) {
	for _, cfg := range []Config{
		{Bits: 1}, {Bits: 2}, {Bits: 1, Entries: 64}, {Bits: 2, Entries: 64},
	} {
		tab, err := NewARPT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := tab.Occupied(); n != 0 {
			t.Fatalf("%+v: fresh table occupies %d entries", cfg, n)
		}
		var ctx Context
		tab.Predict(0x400000, ctx) // a lookup trains nothing
		for i := 0; i < 3; i++ {
			tab.Update(0x400000, ctx, PredictStack)
			tab.Update(0x400004, ctx, PredictNonStack)
			tab.Update(0x400008, ctx, PredictStack)
		}
		if n := tab.Occupied(); n != 3 {
			t.Errorf("%+v: occupied %d after training 3 entries 3 times, want 3", cfg, n)
		}

		// Train the first entry back down to a zero counter.
		for i := 0; i < 3; i++ {
			tab.Update(0x400000, ctx, PredictNonStack)
		}
		if tab.Predict(0x400000, ctx) != PredictNonStack {
			t.Fatalf("%+v: entry did not train back to non-stack", cfg)
		}
		if n := tab.Occupied(); n != 3 {
			t.Errorf("%+v: occupied %d after a counter returned to 0, want 3", cfg, n)
		}

		for n := uint32(0); n < 200; n++ {
			tab.Flip(n)
			if got := tab.Occupied(); got != 3 {
				t.Fatalf("%+v: Flip(%d) moved occupancy to %d", cfg, n, got)
			}
		}
	}

	// A sized table counts entries, not PCs: two PCs that alias in an
	// 8-entry table occupy one entry.
	tab, _ := NewARPT(Config{Bits: 1, Entries: 8})
	tab.Update(0x400000, Context{}, PredictStack)
	tab.Update(0x400000+8*4, Context{}, PredictStack)
	if n := tab.Occupied(); n != 1 {
		t.Errorf("aliasing PCs occupy %d entries, want 1", n)
	}
}
