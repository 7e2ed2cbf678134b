package cpu

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/minicc"
	"repro/internal/workload"
)

// TestBuildTraceReservation builds a program that halts long before
// its budget: the up-front reservation stays within maxTraceReserve
// however large the budget is.
func TestBuildTraceReservation(t *testing.T) {
	p, err := minicc.Compile("t.c", `int main() { int i; int s = 0; for (i = 0; i < 100; i++) { s += i; } return s & 255; }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{maxTraceReserve + 1, 1 << 40} {
		tr, err := BuildTrace(p, TraceOptions{MaxInsts: n})
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Insts) > 1000 {
			t.Fatalf("MaxInsts=%d: the program ran %d instructions, want it to halt early", n, len(tr.Insts))
		}
		if c := cap(tr.Insts); c > maxTraceReserve {
			t.Fatalf("MaxInsts=%d: cap(Insts) = %d, above the %d reserve cap", n, c, maxTraceReserve)
		}
	}
}

// TestBuildTraceRecorded checks traces at n=100k against SHA-256
// digests of their encodings recorded before BuildTrace reserved its
// instruction slice and took the addressing-mode rule from
// core.RefEvent. The codec round trip is reflect.DeepEqual to the
// built trace, so the digest covers every field of the Trace.
func TestBuildTraceRecorded(t *testing.T) {
	want := map[string]string{
		"099.go":      "11ac355e1e7e7320deb322bc32cdda0d5f6da2cdd5d7e72c5fa505f36d196690",
		"126.gcc":     "fbb482821d3ed75e79ecc23ce04519497c61934ffac3c627b9144a11dab9ebb1",
		"130.li":      "f96d6c3177ee8bd02328312b967532de06ef6ea52f46c88d6e6ffb4ea261d7f1",
		"101.tomcatv": "08bcdd770dc0e9c19af3616cb09e9694fc68d19240ebed915dd6a4ccd503b2e9",
	}
	for name, digest := range want {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		p, err := w.Compile(0)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := BuildTrace(p, TraceOptions{MaxInsts: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := tr.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Trace
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, &back) {
			t.Errorf("%s: trace does not survive its codec", name)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != digest {
			t.Errorf("%s: trace digest %s, recorded %s", name, got, digest)
		}
	}
}

// BenchmarkBuildTrace measures one trace build of 129.compress at
// n=100k, the functional pass with the pipeline classifier.
func BenchmarkBuildTrace(b *testing.B) {
	w, _ := workload.ByName("129.compress")
	p, err := w.Compile(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTrace(p, TraceOptions{MaxInsts: 100_000}); err != nil {
			b.Fatal(err)
		}
	}
}
