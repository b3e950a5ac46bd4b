// Package fnv1a provides the 64-bit FNV-1a hash as allocation-free
// primitives shared by the paths that key on it: the store's
// configuration hash (internal/store), the evaluator's support keys and
// the sleep simulator's seeded noise (internal/bench). The
// standard library's hash/fnv covers the same function behind the
// hash.Hash64 interface, which forces byte-slice conversions and escapes
// on paths where this package stays on the stack.
package fnv1a

// Offset and Prime are the standard 64-bit FNV parameters.
const (
	Offset uint64 = 14695981039346656037
	Prime  uint64 = 1099511628211
)

// Mix folds the eight bytes of v (little-endian) into h and returns the
// new state. Start from Offset.
func Mix(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= Prime
	}
	return h
}
