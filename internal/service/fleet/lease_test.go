package fleet

import (
	"errors"
	"reflect"
	"testing"
)

// Tokens are minted strictly increasing and survive a fence floor
// raise; lease IDs are a pure function of the token.
func TestGrantTokensMonotonic(t *testing.T) {
	tb := NewTable(10)
	a := tb.Grant("w1", "ua")
	b := tb.Grant("w2", "ub")
	if b.Token <= a.Token {
		t.Fatalf("tokens not increasing: %d then %d", a.Token, b.Token)
	}
	if a.ID == b.ID {
		t.Fatalf("duplicate lease ID %s", a.ID)
	}
	tb.SetFence(100)
	c := tb.Grant("w1", "uc")
	if c.Token != 101 {
		t.Fatalf("token after SetFence(100) = %d, want 101", c.Token)
	}
	tb.SetFence(5) // lowering is a no-op
	if d := tb.Grant("w1", "ud"); d.Token != 102 {
		t.Fatalf("token after no-op SetFence = %d, want 102", d.Token)
	}
}

func TestExpiryAndRenew(t *testing.T) {
	tb := NewTable(10)
	l := tb.Grant("w1", "unit") // clock 0, deadline 10
	if got := tb.Advance(9); len(got) != 0 {
		t.Fatalf("expired early at tick %d: %v", tb.Now(), got)
	}
	// A renewal pushes the deadline out from the current clock.
	if _, err := tb.Renew(l.ID, l.Token); err != nil { // clock 9, deadline 19
		t.Fatal(err)
	}
	if got := tb.Advance(9); len(got) != 0 { // clock 18
		t.Fatalf("expired despite renewal: %v", got)
	}
	got := tb.Advance(1) // clock 19 >= deadline
	if len(got) != 1 || got[0].Unit != "unit" || got[0].Worker != "w1" {
		t.Fatalf("expiry = %+v, want the renewed lease", got)
	}
	// Expired means gone: renew and complete now miss.
	if _, err := tb.Renew(l.ID, l.Token); !errors.Is(err, ErrNoLease) {
		t.Fatalf("renew after expiry = %v, want ErrNoLease", err)
	}
	if _, err := tb.Complete(l.ID, l.Token); !errors.Is(err, ErrNoLease) {
		t.Fatalf("complete after expiry = %v, want ErrNoLease", err)
	}
}

// The zombie-writer scenario in miniature: a lease expires, the unit
// is regranted under a bigger token, and the original holder's
// completion is fenced while the new holder's succeeds exactly once.
func TestFencingRejectsZombie(t *testing.T) {
	tb := NewTable(5)
	old := tb.Grant("zombie", "unit")
	if exp := tb.Advance(tb.TTL()); len(exp) != 1 {
		t.Fatalf("expected 1 expiry, got %v", exp)
	}
	fresh := tb.Grant("healthy", "unit")
	if fresh.Token <= old.Token {
		t.Fatalf("regrant token %d not past old %d", fresh.Token, old.Token)
	}

	// The zombie comes back with its stale identity.
	if _, err := tb.Complete(old.ID, old.Token); !errors.Is(err, ErrNoLease) {
		t.Fatalf("zombie complete = %v, want ErrNoLease", err)
	}
	// A zombie guessing the live ID still fails the token check.
	if _, err := tb.Complete(fresh.ID, old.Token); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-token complete = %v, want ErrFenced", err)
	}
	u, err := tb.Complete(fresh.ID, fresh.Token)
	if err != nil || u != "unit" {
		t.Fatalf("fresh complete = %v, %v", u, err)
	}
	// Exactly once: the winner cannot double-complete either.
	if _, err := tb.Complete(fresh.ID, fresh.Token); !errors.Is(err, ErrNoLease) {
		t.Fatalf("double complete = %v, want ErrNoLease", err)
	}
}

func TestWorkersGaugeAndDrain(t *testing.T) {
	tb := NewTable(100)
	tb.Grant("w1", 1)
	tb.Grant("w1", 2)
	tb.Grant("w2", 3)
	if got := tb.Workers(); got != 2 {
		t.Fatalf("Workers() = %d, want 2", got)
	}
	if got := tb.Active(); got != 3 {
		t.Fatalf("Active() = %d, want 3", got)
	}
	drained := tb.DrainAll()
	if len(drained) != 3 {
		t.Fatalf("DrainAll() = %d leases, want 3", len(drained))
	}
	for i := 1; i < len(drained); i++ {
		if drained[i].Token <= drained[i-1].Token {
			t.Fatalf("drain order not token-sorted: %+v", drained)
		}
	}
	if tb.Active() != 0 || tb.Workers() != 0 {
		t.Fatal("table not empty after DrainAll")
	}
}

// Determinism: two tables fed the identical call sequence agree on
// every observable — the property that makes fleet testable by replay.
func TestDeterministicReplay(t *testing.T) {
	type obs struct {
		Grants  []Lease
		Expired [][]Lease
		Fence   uint64
		Now     uint64
	}
	play := func() obs {
		tb := NewTable(3)
		var o obs
		for i := 0; i < 6; i++ {
			o.Grants = append(o.Grants, tb.Grant("w", i))
			o.Expired = append(o.Expired, tb.Advance(uint64(i%3)))
		}
		tb.Renew(o.Grants[5].ID, o.Grants[5].Token)
		o.Expired = append(o.Expired, tb.Advance(4))
		o.Fence, o.Now = tb.Fence(), tb.Now()
		return o
	}
	a, b := play(), play()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestRetract(t *testing.T) {
	tb := NewTable(10)
	l := tb.Grant("w1", "unit")
	tb.Retract(l.ID)
	if _, err := tb.Renew(l.ID, l.Token); !errors.Is(err, ErrNoLease) {
		t.Fatalf("renew after retract = %v, want ErrNoLease", err)
	}
	// The token is burned, not reused.
	if next := tb.Grant("w1", "u2"); next.Token != l.Token+1 {
		t.Fatalf("token after retract = %d, want %d", next.Token, l.Token+1)
	}
}

// Only ticks move the lease clock: a held lease outlives any amount of
// other workers' grant and complete traffic between two of its
// heartbeats.
func TestTrafficDoesNotAgeLeases(t *testing.T) {
	tb := NewTable(DefaultTTL)
	held := tb.Grant("slow", "long unit")
	for i := 0; i < 1000; i++ {
		l := tb.Grant("fast", i)
		if _, err := tb.Complete(l.ID, l.Token); err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
	}
	if exp := tb.Advance(0); len(exp) != 0 {
		t.Fatalf("traffic expired %+v", exp)
	}
	if _, err := tb.Renew(held.ID, held.Token); err != nil {
		t.Fatalf("renew after traffic: %v", err)
	}
	if exp := tb.Advance(DefaultTTL); len(exp) != 1 || exp[0].ID != held.ID {
		t.Fatalf("expiry after a full TTL of ticks = %+v, want the held lease", exp)
	}
}

// A pinned lease never expires, however far the clock runs, yet it
// renews, fences and completes like any other lease.
func TestPinnedLeaseNeverExpires(t *testing.T) {
	tb := NewTable(10)
	pinned := tb.GrantPinned("local", "unit")
	remote := tb.Grant("remote", "u2")
	if exp := tb.Advance(1000); len(exp) != 1 || exp[0].ID != remote.ID {
		t.Fatalf("expired %+v, want only the remote lease", exp)
	}
	if l, err := tb.Renew(pinned.ID, pinned.Token); err != nil || l.Deadline != 0 {
		t.Fatalf("renew pinned = %+v, %v; want deadline 0", l, err)
	}
	if _, err := tb.Complete(pinned.ID, pinned.Token+1); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale complete = %v, want ErrFenced", err)
	}
	if _, err := tb.Complete(pinned.ID, pinned.Token); err != nil {
		t.Fatalf("complete pinned: %v", err)
	}
}
