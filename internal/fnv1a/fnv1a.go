// Package fnv1a is the 64-bit FNV-1a digest the snapshot formats and the
// WAL use as their checksum: the v6 header and section table, the
// sections of v6 files written with flags 0, v5 segment manifests and
// WAL frames.
package fnv1a

const (
	// Offset is the FNV-1a 64-bit offset basis: the digest of no bytes,
	// and the state to start an Update chain from.
	Offset uint64 = 14695981039346656037
	// Prime is the FNV 64-bit prime each byte's xor is multiplied by.
	Prime uint64 = 1099511628211
)

// Sum returns the FNV-1a digest of b.
func Sum(b []byte) uint64 { return Update(Offset, b) }

// Update continues the digest h over b: Update(Sum(a), b) == Sum(a+b).
func Update(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * Prime
	}
	return h
}
