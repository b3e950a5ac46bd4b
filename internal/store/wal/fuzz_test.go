package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// fuzzSeedSegment builds a well-formed segment image for the seed
// corpus: header plus n batches.
func fuzzSeedSegment(n int) []byte {
	b := appendHeader(nil, 1)
	for i := 0; i < n; i++ {
		b = appendRecord(b, testBatch(i, 2+i%3))
	}
	return b
}

// snapshotImage is a file in the snapshot format older versions of the
// log wrote: a segment image whose magic reads "RWALSNP1" and whose one
// record has kind 2. The segment scanner must refuse it.
func snapshotImage() []byte {
	b := appendRecord(appendHeader(nil, 1), testBatch(0, 3))
	copy(b, "RWALSNP1")
	payload := b[headerLen+recHdrLen:]
	payload[0] = 2
	binary.LittleEndian.PutUint32(b[headerLen+4:], crc32.Checksum(payload, crcTable))
	return b
}

// FuzzSegmentDecode throws arbitrary bytes at the segment scanner — the
// code every recovery trusts with whatever a crash left on disk — and
// checks it can neither panic nor lie:
//
//   - scanning never panics and never over-allocates on hostile length
//     fields (the decoder validates every length against the remaining
//     input before allocating);
//   - validLen never exceeds the input, and a torn verdict only happens
//     on the final segment;
//   - truncation is idempotent: re-scanning data[:validLen] yields the
//     same batches with no torn tail — what Open relies on when it
//     truncates and appends;
//   - decoding is faithful: re-encoding the recovered batches
//     reproduces data[:validLen] byte for byte (the format has one
//     canonical encoding), so nothing was dropped or invented.
func FuzzSegmentDecode(f *testing.F) {
	f.Add(fuzzSeedSegment(0), true)
	f.Add(fuzzSeedSegment(3), true)
	f.Add(fuzzSeedSegment(3)[:40], true)
	f.Add(fuzzSeedSegment(1), false)
	f.Add([]byte{}, true)
	f.Add([]byte("RWALSEG1garbage"), true)
	f.Add(snapshotImage(), true)
	// A record whose length field claims far more than the file holds.
	huge := appendHeader(nil, 1)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0)
	f.Add(huge, true)
	f.Fuzz(func(t *testing.T, data []byte, last bool) {
		batches, validLen, torn, err := scanSegment(data, 1, last)
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("validLen %d outside input of %d bytes", validLen, len(data))
		}
		if torn && !last {
			t.Fatal("torn verdict on a non-final segment")
		}
		if err == nil {
			// validLen is all-or-nothing below the header: either the
			// header was cut (0, rebuild from scratch) or it holds whole.
			if validLen > 0 && validLen < headerLen {
				t.Fatalf("validLen %d inside the %d-byte header", validLen, headerLen)
			}
			if validLen == 0 && len(batches) != 0 {
				t.Fatal("recovered batches from an empty valid prefix")
			}
			if validLen >= headerLen {
				// Idempotent truncation: the valid prefix re-scans clean.
				again, len2, torn2, err2 := scanSegment(data[:validLen], 1, last)
				if err2 != nil || torn2 || len2 != validLen || len(again) != len(batches) {
					t.Fatalf("re-scan of valid prefix diverged: err=%v torn=%v len=%d batches=%d (was %d)",
						err2, torn2, len2, len(again), len(batches))
				}
				// Faithful decode: canonical re-encoding reproduces the prefix.
				enc := appendHeader(nil, 1)
				for _, b := range batches {
					enc = appendRecord(enc, b)
				}
				if !bytes.Equal(enc, data[:validLen]) {
					t.Fatalf("re-encoding %d recovered batches does not reproduce the %d-byte valid prefix", len(batches), validLen)
				}
			}
		}
	})
}
