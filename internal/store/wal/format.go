package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// On-disk format (all integers little-endian):
//
//	segment file  wal-<index:%016x>.seg
//	    header  | magic "RWALSEG1" (8) | version u32 | reserved u32 | index u64 |
//	    records | length u32 | crc32c(payload) u32 | payload |  ... repeated
//	    payload | kind u8 (1 = batch) | count u32 | entry* |
//	    entry   | nv u32 | coord i64 × nv | lambda f64 bits u64 |
//
// Segments are numbered from 1 and recovery replays them all in order.
// The crc32c (Castagnoli) checksum covers the payload only; the length
// field is implicitly validated by the checksum because a record is only
// accepted when the declared span both fits the file and checks out.
const (
	headerLen     = 24
	recHdrLen     = 8
	formatVersion = 1
	// maxRecordLen bounds a single record so a corrupt length field can
	// never drive a multi-gigabyte allocation.
	maxRecordLen = 1 << 30

	kindBatch = 1
)

var (
	segMagic = [8]byte{'R', 'W', 'A', 'L', 'S', 'E', 'G', '1'}

	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// ErrCorrupt reports interior log damage that recovery refuses to repair
// automatically: a checksum mismatch or truncation anywhere but the tail
// of the final segment, a header from the wrong file or format version,
// or a gap in the segment sequence. A torn final record — the expected
// residue of a crash mid-append — is NOT this error; it is silently
// truncated away.
var ErrCorrupt = errors.New("wal: log corrupt")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// appendHeader appends a segment header for the given index.
func appendHeader(b []byte, index uint64) []byte {
	b = append(b, segMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	b = binary.LittleEndian.AppendUint32(b, 0) // reserved
	b = binary.LittleEndian.AppendUint64(b, index)
	return b
}

// checkHeader validates a segment header against the index encoded in
// the file's name. The caller guarantees len(data) >= headerLen.
func checkHeader(data []byte, wantIndex uint64) error {
	for i, c := range segMagic {
		if data[i] != c {
			return corruptf("bad magic %q", data[:8])
		}
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return corruptf("format version %d, want %d", v, formatVersion)
	}
	// The writer always zeroes the reserved word, so anything else is
	// damage (and enforcing it keeps the encoding canonical: any
	// accepted file region re-encodes to itself byte for byte).
	if r := binary.LittleEndian.Uint32(data[12:]); r != 0 {
		return corruptf("reserved header word %#x, want 0", r)
	}
	if idx := binary.LittleEndian.Uint64(data[16:]); idx != wantIndex {
		return corruptf("header index %d does not match file name index %d", idx, wantIndex)
	}
	return nil
}

// recordLen returns the exact encoded size of one framed record holding
// the batch.
func recordLen(batch []Record) int {
	n := recHdrLen + 5 // framing + kind + count
	for _, r := range batch {
		n += 4 + 8*len(r.Config) + 8
	}
	return n
}

// appendRecord appends one framed batch record (length, crc32c,
// payload). It allocates nothing when b has capacity, which is what
// keeps group commit at O(1) allocations per batch — and at most one
// exact-size allocation when it does not: growing through the
// per-coordinate appends instead would memmove the multi-megabyte
// buffer of a bulk batch several times over.
func appendRecord(b []byte, batch []Record) []byte {
	if need := recordLen(batch); cap(b)-len(b) < need {
		nb := make([]byte, len(b), len(b)+need)
		copy(nb, b)
		b = nb
	}
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholder
	b = append(b, kindBatch)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(batch)))
	for _, r := range batch {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Config)))
		for _, v := range r.Config {
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Lambda))
	}
	payload := b[start+recHdrLen:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b
}

// decodeRecordPayload decodes a checksum-validated record payload. Every
// length is re-validated against the remaining bytes before any
// allocation, so a hostile payload can neither panic the decoder nor
// make it allocate beyond the input size.
func decodeRecordPayload(p []byte) (kind byte, batch []Record, err error) {
	if len(p) < 5 {
		return 0, nil, corruptf("record payload of %d bytes is below the %d-byte minimum", len(p), 5)
	}
	kind = p[0]
	count := binary.LittleEndian.Uint32(p[1:5])
	off := 5
	// Each entry occupies at least 12 bytes (nv + lambda), which bounds a
	// plausible count by the payload size.
	if uint64(count) > uint64(len(p)-off)/12+1 {
		return 0, nil, corruptf("record claims %d entries in %d bytes", count, len(p))
	}
	batch = make([]Record, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p)-off < 4 {
			return 0, nil, corruptf("entry %d truncated", i)
		}
		nv := binary.LittleEndian.Uint32(p[off:])
		off += 4
		if need := uint64(nv)*8 + 8; uint64(len(p)-off) < need {
			return 0, nil, corruptf("entry %d claims %d coordinates in %d remaining bytes", i, nv, len(p)-off)
		}
		cfg := make([]int, nv)
		for j := range cfg {
			cfg[j] = int(int64(binary.LittleEndian.Uint64(p[off:])))
			off += 8
		}
		lambda := math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
		off += 8
		batch = append(batch, Record{Config: cfg, Lambda: lambda})
	}
	if off != len(p) {
		return 0, nil, corruptf("%d trailing bytes after entry %d", len(p)-off, count)
	}
	return kind, batch, nil
}

// scanSegment walks one segment image and returns its decoded batches.
// validLen is the byte length of the longest valid prefix. On the final
// segment of the log (last == true) an incomplete or checksum-failing
// record that extends to end-of-file is reported as torn — the caller
// truncates to validLen and appends from there — while the same damage
// followed by further bytes, or found in any earlier segment, is
// ErrCorrupt: acknowledged records lived beyond it, so dropping it would
// silently lose committed data.
func scanSegment(data []byte, wantIndex uint64, last bool) (batches [][]Record, validLen int, torn bool, err error) {
	if len(data) < headerLen {
		if last {
			// A crash can cut the very first write short; there is
			// nothing after a header, so nothing acknowledged is lost.
			return nil, 0, true, nil
		}
		return nil, 0, false, corruptf("segment %d: header truncated at %d bytes", wantIndex, len(data))
	}
	if err := checkHeader(data, wantIndex); err != nil {
		return nil, 0, false, err
	}
	off := headerLen
	for off < len(data) {
		rem := len(data) - off
		if rem < recHdrLen {
			if last {
				return batches, off, true, nil
			}
			return nil, 0, false, corruptf("segment %d: record header truncated at offset %d", wantIndex, off)
		}
		length := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if length > maxRecordLen {
			return nil, 0, false, corruptf("segment %d: record of %d bytes at offset %d exceeds the format maximum", wantIndex, length, off)
		}
		if uint64(rem-recHdrLen) < uint64(length) {
			if last {
				return batches, off, true, nil
			}
			return nil, 0, false, corruptf("segment %d: record at offset %d truncated", wantIndex, off)
		}
		end := off + recHdrLen + int(length)
		payload := data[off+recHdrLen : end]
		if crc32.Checksum(payload, crcTable) != crc {
			if last && end == len(data) {
				return batches, off, true, nil // torn tail write
			}
			return nil, 0, false, corruptf("segment %d: checksum mismatch at offset %d", wantIndex, off)
		}
		kind, batch, derr := decodeRecordPayload(payload)
		if derr != nil {
			return nil, 0, false, derr
		}
		if kind != kindBatch {
			return nil, 0, false, corruptf("segment %d: record kind %d at offset %d, want batch", wantIndex, kind, off)
		}
		batches = append(batches, batch)
		off = end
	}
	return batches, off, false, nil
}
