package cpu

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

func sampleTrace() *Trace {
	return &Trace{
		Name: "126.gcc",
		Insts: []TraceInst{
			{Addr: 0x7FFF_0000, Index: 3, Class: 2, Src1: 4, Src2: -1, Dest: 7, Flags: FlagMem | FlagLoad | FlagStack},
			{Addr: 0x1000_0040, Index: 9, Class: 1, Src1: -1, Src2: -1, Dest: 40, Flags: FlagMem | FlagFPMem},
			{Index: 10, Class: 5, Src1: 63, Src2: 12, Dest: -1},
		},
		PredictorStats: core.ClassifyStats{
			Total: 100, Correct: 97, StaticCovered: 40,
			HintCovered: 10, HintCorrect: 9, TableLookups: 50, TableCorrect: 48,
		},
	}
}

func TestTraceCodecRoundTrip(t *testing.T) {
	want := sampleTrace()
	data, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Trace
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", &got, want)
	}

	// Deterministic byte image: encoding the same trace twice agrees.
	again, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatal("non-deterministic encoding")
	}

	// Empty trace round-trips too.
	empty := &Trace{Name: ""}
	data, err = empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if len(back.Insts) != 0 {
		t.Fatalf("empty trace decoded to %d insts", len(back.Insts))
	}
}

func TestTraceCodecRejectsMangledInput(t *testing.T) {
	data, err := sampleTrace().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"truncated record", func(b []byte) []byte { return b[:len(b)-1] }},
		{"name overruns", func(b []byte) []byte { b[5] = 0xFF; return b }},
		{"count overruns", func(b []byte) []byte { b[len(b)-3*13-8] = 0xFF; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.mangle(append([]byte(nil), data...))
			var tr Trace
			if err := tr.UnmarshalBinary(in); err == nil {
				t.Fatal("mangled input decoded without error")
			}
		})
	}
}

// sampleResults are hand-built results covering both machine kinds:
// a decoupled one with both occupancy histograms, and a conventional
// one, renamed to a non-ASCII name, whose LVAQ histogram is nil.
func sampleResults() []*Result {
	dec := &Result{
		Config: Decoupled(3, 3).WithPenalty(16), Name: "130.li",
		Cycles: 1 << 40, Insts: 20_000,
		PartStats:       []cache.Stats{{Accesses: 900, Hits: 850, Misses: 50, Writebacks: 7}, {Accesses: 300, Hits: 299, Misses: 1}},
		L2Stats:         cache.Stats{Accesses: 51, Hits: 3, Misses: 48},
		ARPTMispredicts: 12, Recoveries: 12, Forwards: 40, FastForwards: 9,
		VPUsed: 1, StallROB: 300, StallQueue: ^uint64(0),
		Occupancy: [2][]uint64{{0, 5, 1 << 40}, {7}},
	}
	dec.L1Stats, dec.LVCStats = dec.PartStats[0], dec.PartStats[1]
	conv := &Result{Config: Conventional(2, 3), Name: "ω", Cycles: 3, Insts: 2,
		PartStats: []cache.Stats{{Accesses: 1}}, Occupancy: [2][]uint64{{1, 2}}}
	conv.Config.MispredictPenalty = -1
	conv.L1Stats = conv.PartStats[0]
	return []*Result{dec, conv}
}

func TestResultCodecRoundTrip(t *testing.T) {
	for _, want := range append(sampleResults(), &Result{}) {
		data, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", &got, want)
		}
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encoding the decoded result changed its bytes", want.Name)
		}
	}
}

func TestResultCodecRejectsMangledInput(t *testing.T) {
	data, err := sampleResults()[1].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }},
		{"name overruns", func(b []byte) []byte { b[5] = 0x7F; return b }},
		// The last field is the LVAQ histogram's length, 0 here.
		{"overlong varint", func(b []byte) []byte { return append(b[:len(b)-1], 0x80, 0) }},
		{"count overruns", func(b []byte) []byte { b[len(b)-1] = 0x7F; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.mangle(append([]byte(nil), data...))
			var r Result
			if err := r.UnmarshalBinary(in); err == nil {
				t.Fatal("mangled input decoded without error")
			}
		})
	}
	// A bool byte other than 0 or 1: FastForward is the byte before the
	// result's name (a 1-byte length and the 2-byte "ω").
	in := append([]byte(nil), data...)
	ff := bytes.Index(in, []byte("\x02ω")) - 1
	if ff < 0 || in[ff] != 0 {
		t.Fatalf("FastForward byte not found in % x", in)
	}
	in[ff] = 2
	var r Result
	if err := r.UnmarshalBinary(in); err == nil {
		t.Fatal("bool byte 2 decoded without error")
	}
}

// FuzzResultCodec: arbitrary bytes never panic the decoder, and any
// input it accepts re-encodes to exactly the same bytes.
func FuzzResultCodec(f *testing.F) {
	for _, r := range sampleResults() {
		data, err := r.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(resultMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Result
		if r.UnmarshalBinary(data) != nil {
			return
		}
		again, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decoded % x, re-encoded % x", data, again)
		}
	})
}
