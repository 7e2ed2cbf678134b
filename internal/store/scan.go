package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// maxHeader bounds a frame's header line, magic included; a longer
// line is corruption.
const maxHeader = 4 << 10

// indexed is one frame a scan found.
type indexed struct {
	hash string // the key hash the frame's header states and its key matches
	at   loc
}

// segScan is the outcome of scanning one stretch of a segment.
type segScan struct {
	frames  []indexed // in file order
	end     int64     // where framing stopped: the size, or a torn tail
	skipped int       // torn tails and unparsable stretches passed over
}

// scanSegment frames the bytes [off, size) of the segment at path. It
// reads each header line, then skips the payload length the header
// states, so it never reads a payload of a sound segment. A frame that
// runs past size is a torn tail and stops the scan there, so a frame a
// concurrent writer has not finished is picked up by a later scan. A
// header that does not parse, or whose key does not match its stated
// hash, is skipped up to the next magic.
func scanSegment(fs FS, path string, off, size int64) (segScan, error) {
	var sc segScan
	buf := make([]byte, maxHeader)
	for off < size {
		b, err := readAt(fs, path, buf[:min(maxHeader, size-off)], off)
		if err != nil {
			return sc, err
		}
		hdr, n, complete := parseHeader(b)
		switch {
		case n > 0 && int64(hdr.Len) <= size-off-int64(n):
			at := loc{path: path, off: off, n: int64(n + hdr.Len)}
			sc.frames = append(sc.frames, indexed{hash: hdr.KeyHash, at: at})
			off += at.n
			continue
		case n > 0 || !complete:
			sc.skipped++
			sc.end = off
			return sc, nil
		}
		next, err := findMagic(fs, path, buf, off+1, size)
		if err != nil {
			return sc, err
		}
		sc.skipped++
		off = next
	}
	sc.end = off
	return sc, nil
}

// parseHeader parses the header line at the start of b and returns the
// header and the length of the line with its magic and newline (n > 0
// when the header is sound: it parses, has this schema, and its key
// hashes to the hash it states). complete is false when b, which runs to
// the end of the segment, stops inside what may still be a sound
// header: a torn tail rather than corruption.
func parseHeader(b []byte) (hdr header, n int, complete bool) {
	if len(b) < len(magic) {
		return hdr, 0, !bytes.HasPrefix([]byte(magic), b)
	}
	if !bytes.HasPrefix(b, []byte(magic)) {
		return hdr, 0, true
	}
	nl := bytes.IndexByte(b[:min(len(b), maxHeader)], '\n')
	if nl < 0 {
		return hdr, 0, len(b) >= maxHeader
	}
	if json.Unmarshal(b[len(magic):nl], &hdr) != nil || hdr.Schema != RecordSchema || hdr.Len < 0 ||
		hdr.KeyHash != hdr.Key.Hash() {
		return header{}, 0, true
	}
	return hdr, nl + 1, true
}

// readAt reads the segment's bytes from off into buf, fewer if the
// file has shrunk since the scan began.
func readAt(fs FS, path string, buf []byte, off int64) ([]byte, error) {
	n, err := fs.ReadAt(path, buf, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf[:n], nil
}

// findMagic returns the offset of the first magic at or after from, or
// size when there is none, reading buf-sized blocks.
func findMagic(fs FS, path string, buf []byte, from, size int64) (int64, error) {
	for from < size {
		b, err := readAt(fs, path, buf[:min(int64(len(buf)), size-from)], from)
		if err != nil {
			return 0, err
		}
		if i := bytes.Index(b, []byte(magic)); i >= 0 {
			return from + int64(i), nil
		}
		if len(b) < len(magic) {
			break
		}
		// Overlap the next block so a magic across the edge is found.
		from += int64(len(b) - len(magic) + 1)
	}
	return size, nil
}
