package cpu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
)

// Trace serialization: a trace is by far the largest artifact the
// durable store holds (one 13-byte record per dynamic instruction),
// so it gets a packed little-endian codec instead of reflective gob —
// encoding is a flat copy and the byte image is deterministic for a
// given trace.
//
// Layout: magic "ARLT", u8 version, u32 name length + name bytes,
// 8 × u64 classifier counters, u64 instruction count, then count
// packed records of traceInstBytes each.
const (
	traceMagic        = "ARLT"
	traceCodecVersion = 1
	traceInstBytes    = 4 + 4 + 1 + 1 + 1 + 1 + 1 // Addr, Index, Class, Src1, Src2, Dest, Flags
)

// MarshalBinary encodes the trace in the packed record format. It
// implements encoding.BinaryMarshaler, which the artifact store
// prefers over gob.
func (t *Trace) MarshalBinary() ([]byte, error) {
	if len(t.Name) > 1<<20 {
		return nil, fmt.Errorf("cpu: trace name %d bytes long", len(t.Name))
	}
	size := len(traceMagic) + 1 + 4 + len(t.Name) + 8*8 + 8 + len(t.Insts)*traceInstBytes
	buf := make([]byte, 0, size)
	buf = append(buf, traceMagic...)
	buf = append(buf, traceCodecVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Name)))
	buf = append(buf, t.Name...)
	s := &t.PredictorStats
	for _, v := range []uint64{s.Total, s.Correct, s.StaticCovered, s.HintCovered,
		s.HintCorrect, s.TableLookups, s.TableCorrect, uint64(len(t.Insts))} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for i := range t.Insts {
		in := &t.Insts[i]
		buf = binary.LittleEndian.AppendUint32(buf, in.Addr)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(in.Index))
		buf = append(buf, byte(in.Class), byte(in.Src1), byte(in.Src2), byte(in.Dest), in.Flags)
	}
	return buf, nil
}

// UnmarshalBinary decodes a trace encoded by MarshalBinary. It
// implements encoding.BinaryUnmarshaler; any framing violation is an
// error (the store quarantines the record and recomputes).
func (t *Trace) UnmarshalBinary(data []byte) error {
	bad := func(what string) error { return fmt.Errorf("cpu: trace codec: %s", what) }
	if len(data) < len(traceMagic)+1+4 || string(data[:len(traceMagic)]) != traceMagic {
		return bad("bad magic")
	}
	data = data[len(traceMagic):]
	if data[0] != traceCodecVersion {
		return bad(fmt.Sprintf("version %d, want %d", data[0], traceCodecVersion))
	}
	data = data[1:]
	nameLen := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if nameLen < 0 || nameLen > len(data) {
		return bad("name length out of range")
	}
	name := string(data[:nameLen])
	data = data[nameLen:]
	if len(data) < 8*8 {
		return bad("truncated counters")
	}
	var counters [8]uint64
	for i := range counters {
		counters[i] = binary.LittleEndian.Uint64(data)
		data = data[8:]
	}
	count := counters[7]
	if uint64(len(data)) != count*traceInstBytes {
		return bad(fmt.Sprintf("%d payload bytes for %d records", len(data), count))
	}
	insts := make([]TraceInst, count)
	for i := range insts {
		in := &insts[i]
		in.Addr = binary.LittleEndian.Uint32(data)
		in.Index = int32(binary.LittleEndian.Uint32(data[4:]))
		in.Class = isa.Class(data[8])
		in.Src1 = int8(data[9])
		in.Src2 = int8(data[10])
		in.Dest = int8(data[11])
		in.Flags = data[12]
		data = data[traceInstBytes:]
	}
	t.Name = name
	t.Insts = insts
	t.PredictorStats = core.ClassifyStats{
		Total: counters[0], Correct: counters[1],
		StaticCovered: counters[2], HintCovered: counters[3], HintCorrect: counters[4],
		TableLookups: counters[5], TableCorrect: counters[6],
	}
	return nil
}

// Result serialization: a Result is the whole simulation artifact the
// durable store keeps (metrics are published from it), and arld reads
// one back for every deduplicated unit, so it also gets a packed codec
// instead of gob, whose per-record decoder rebuilds its type engines
// on every read.
//
// Layout: magic "ARLR", u8 version, then every field in declaration
// order, Config's and cache.Config's included: integers as varints
// (uvarint for uint64, zig-zag varint for int), strings and slices as a
// uvarint length and their elements, bools as one byte 0 or 1. An
// empty slice decodes as nil. The encoding is canonical: each value has
// one byte image, and decoding rejects any other (an overlong varint, a
// bool byte other than 0 or 1, trailing bytes).
const (
	resultMagic        = "ARLR"
	resultCodecVersion = 1
)

// MarshalBinary encodes the result in the packed format. It implements
// encoding.BinaryMarshaler, which the artifact store prefers over gob.
func (r *Result) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 256)
	buf = append(buf, resultMagic...)
	buf = append(buf, resultCodecVersion)

	c := &r.Config
	buf = appendString(buf, c.Name)
	buf = appendInts(buf, c.IssueWidth, c.ROBSize, c.LSQSize, c.LVAQSize)
	buf = binary.AppendUvarint(buf, uint64(len(c.Partitions)))
	for _, p := range c.Partitions {
		buf = appendString(buf, p.Name)
		buf = appendInts(buf, p.SizeBytes, p.LineBytes, p.Assoc, p.HitLatency, p.Ports)
	}
	buf = appendString(buf, c.SteerPolicy)
	buf = appendInts(buf, c.IntALU, c.FPALU, c.IntMulDiv, c.FPMulDiv, c.MispredictPenalty)
	buf = appendBool(buf, c.FastForward)

	buf = appendString(buf, r.Name)
	buf = appendUints(buf, r.Cycles, r.Insts)
	buf = binary.AppendUvarint(buf, uint64(len(r.PartStats)))
	for _, st := range r.PartStats {
		buf = appendStats(buf, st)
	}
	buf = appendStats(buf, r.L1Stats)
	buf = appendStats(buf, r.LVCStats)
	buf = appendStats(buf, r.L2Stats)
	buf = appendUints(buf, r.ARPTMispredicts, r.Recoveries, r.Forwards, r.FastForwards,
		r.VPUsed, r.StallROB, r.StallQueue)
	for _, counts := range r.Occupancy {
		buf = binary.AppendUvarint(buf, uint64(len(counts)))
		buf = appendUints(buf, counts...)
	}
	return buf, nil
}

// UnmarshalBinary decodes a result encoded by MarshalBinary. It
// implements encoding.BinaryUnmarshaler; any framing violation is an
// error (the store quarantines the record and recomputes).
func (r *Result) UnmarshalBinary(data []byte) error {
	if len(data) < len(resultMagic)+1 || string(data[:len(resultMagic)]) != resultMagic {
		return fmt.Errorf("cpu: result codec: bad magic")
	}
	if v := data[len(resultMagic)]; v != resultCodecVersion {
		return fmt.Errorf("cpu: result codec: version %d, want %d", v, resultCodecVersion)
	}
	d := &resultDecoder{data: data[len(resultMagic)+1:]}
	var out Result

	c := &out.Config
	c.Name = d.string()
	c.IssueWidth, c.ROBSize, c.LSQSize, c.LVAQSize = d.int(), d.int(), d.int(), d.int()
	if n := d.count(); n > 0 {
		c.Partitions = make([]cache.PartitionConfig, n)
		for i := range c.Partitions {
			p := &c.Partitions[i]
			p.Name = d.string()
			p.SizeBytes, p.LineBytes, p.Assoc, p.HitLatency, p.Ports = d.int(), d.int(), d.int(), d.int(), d.int()
		}
	}
	c.SteerPolicy = d.string()
	c.IntALU, c.FPALU, c.IntMulDiv, c.FPMulDiv, c.MispredictPenalty = d.int(), d.int(), d.int(), d.int(), d.int()
	c.FastForward = d.bool()

	out.Name = d.string()
	out.Cycles, out.Insts = d.uint(), d.uint()
	if n := d.count(); n > 0 {
		out.PartStats = make([]cache.Stats, n)
		for i := range out.PartStats {
			out.PartStats[i] = d.stats()
		}
	}
	out.L1Stats, out.LVCStats, out.L2Stats = d.stats(), d.stats(), d.stats()
	out.ARPTMispredicts, out.Recoveries, out.Forwards, out.FastForwards = d.uint(), d.uint(), d.uint(), d.uint()
	out.VPUsed, out.StallROB, out.StallQueue = d.uint(), d.uint(), d.uint()
	for q := range out.Occupancy {
		if n := d.count(); n > 0 {
			counts := make([]uint64, n)
			for i := range counts {
				counts[i] = d.uint()
			}
			out.Occupancy[q] = counts
		}
	}
	if d.err == nil && len(d.data) != 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.data)))
	}
	if d.err != nil {
		return d.err
	}
	*r = out
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendInts(buf []byte, vs ...int) []byte {
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

func appendUints(buf []byte, vs ...uint64) []byte {
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendStats(buf []byte, st cache.Stats) []byte {
	return appendUints(buf, st.Accesses, st.Hits, st.Misses, st.Writebacks)
}

// resultDecoder reads the fields of a packed Result in order. The
// first framing violation sticks in err, after which every read
// returns a zero value.
type resultDecoder struct {
	data []byte
	err  error
}

func (d *resultDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("cpu: result codec: %s", what)
	}
	d.data = nil
}

// uint reads a uvarint, rejecting an overlong one (a final byte of 0
// after the first), which would not re-encode to the same bytes.
func (d *resultDecoder) uint() uint64 {
	v, n := binary.Uvarint(d.data)
	if n <= 0 || n > 1 && d.data[n-1] == 0 {
		d.fail("bad varint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *resultDecoder) int() int {
	u := d.uint()
	v := int64(u>>1) ^ -int64(u&1) // zig-zag, as binary.AppendVarint
	if int64(int(v)) != v {
		d.fail("int out of range")
		return 0
	}
	return int(v)
}

// count reads a length and checks that at least that many bytes
// remain, since every element takes one or more.
func (d *resultDecoder) count() int {
	n := d.uint()
	if n > uint64(len(d.data)) {
		d.fail("length out of range")
		return 0
	}
	return int(n)
}

func (d *resultDecoder) string() string {
	n := d.count()
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

func (d *resultDecoder) bool() bool {
	if len(d.data) == 0 || d.data[0] > 1 {
		d.fail("bad bool")
		return false
	}
	b := d.data[0] == 1
	d.data = d.data[1:]
	return b
}

func (d *resultDecoder) stats() cache.Stats {
	return cache.Stats{Accesses: d.uint(), Hits: d.uint(), Misses: d.uint(), Writebacks: d.uint()}
}
