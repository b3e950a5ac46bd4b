package store

import (
	"encoding/binary"
	"testing"

	"repro/internal/space"
)

// configFromBytes derives a configuration from raw fuzz bytes: each
// 2-byte window becomes one signed coordinate, so the fuzzer explores
// lengths and values (negative included) freely.
func configFromBytes(data []byte) space.Config {
	c := make(space.Config, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		c = append(c, int(int16(binary.LittleEndian.Uint16(data[i:]))))
	}
	return c
}

// FuzzHashConfig hardens the hash both layers key identity on (exact
// lookup, single-flight coalescing, WAL replay identity):
// arbitrary coordinate vectors must never panic, must hash equal for
// equal content regardless of backing array, and must hash a proper
// prefix differently from its extension (the length is part of the
// identity, so {1} and {1,0} must not collide — a collision there would
// let a lookup of one return the other's value).
func FuzzHashConfig(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Add([]byte{1, 0, 2, 0, 3, 0})
	f.Add([]byte{0xFF, 0xFF, 0x00, 0x80}) // negative coordinates
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := configFromBytes(data)
		h := HashConfig(c)
		if h2 := HashConfig(c.Clone()); h2 != h {
			t.Fatalf("clone hashes differently: %x vs %x", h2, h)
		}
		if len(c) > 0 {
			if hp := HashConfig(c[:len(c)-1]); hp == h {
				t.Fatalf("prefix of length %d collides with its extension", len(c)-1)
			}
		}
		// The hash must agree with the store's own identity semantics:
		// an Add followed by a Lookup through a different backing array.
		s := New()
		s.Add(c, 0.5)
		if v, ok := s.Lookup(c.Clone()); !ok || v != 0.5 {
			t.Fatalf("store lost config %v through hash identity (%v, %v)", c, v, ok)
		}
	})
}
