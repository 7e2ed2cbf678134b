package store

import (
	"bytes"
	"testing"
)

// FuzzScan feeds arbitrary bytes to the log's scanner, the one parser
// of bytes read from disk, in both its modes: the whole-segment scan
// that replay uses and the positional, header-only scan that indexes
// the store. Neither may panic, and every frame either returns must
// have a sound header and lie inside the input, after the last one;
// every frame the whole scan returns must decode.
func FuzzScan(f *testing.F) {
	var seg []byte
	for _, p := range [][]byte{[]byte("a"), []byte(`{"t":"job","job":"c0001"}`), make([]byte, 300)} {
		h := headerOf(p)
		seg = append(append(seg, h[:]...), p...)
	}
	damaged := bytes.Clone(seg)
	damaged[frameHeader+1+4] ^= 0x10
	for _, b := range [][]byte{seg, seg[:len(seg)-3], seg[:frameHeader+1+7], damaged, nil, []byte(frameMagic)} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(mode string, fr Frame, prev int64) int64 {
			if fr.Off < prev || fr.Size < frameHeader || fr.Off+fr.Size > int64(len(data)) {
				t.Fatalf("%s scan: frame at %d of %d bytes, after %d, in %d bytes of input", mode, fr.Off, fr.Size, prev, len(data))
			}
			if n, ok := payloadLen(data[fr.Off:]); !ok || frameHeader+n != fr.Size {
				t.Fatalf("%s scan: frame at %d has no sound header", mode, fr.Off)
			}
			return fr.Off + fr.Size
		}
		var prev int64
		st := ScanBytes(data, func(fr Frame) {
			if _, err := decodeFrame(data[fr.Off : fr.Off+fr.Size]); err != nil {
				t.Fatalf("whole scan: frame at %d does not decode: %v", fr.Off, err)
			}
			prev = check("whole", fr, prev)
		})
		if st.End < prev || st.End > int64(len(data)) || st.Torn > 1 {
			t.Fatalf("whole scan: stats %+v after a frame ending at %d of %d bytes", st, prev, len(data))
		}
		prev = 0
		sc := &scanner{
			read: func(off int64, n int) ([]byte, error) { return data[off : off+int64(n)], nil },
			size: int64(len(data)), peek: 8,
			frame: func(fr Frame) {
				if len(fr.Payload) > 8 {
					t.Fatalf("positional scan: handed %d payload bytes, peek is 8", len(fr.Payload))
				}
				prev = check("positional", fr, prev)
			},
		}
		if st, err := sc.run(0); err != nil || st.End < prev || st.End > int64(len(data)) {
			t.Fatalf("positional scan: %+v, %v", st, err)
		}
	})
}
