// Package fnv1a is the 64-bit FNV-1a digest the snapshot formats and the
// WAL use as their checksum: Sum and Update for one byte stream, and Sums
// for many independent payloads at once.
//
// FNV-1a is one serial xor→multiply chain per byte, so a single digest
// runs at the multiplier's latency, not its throughput. Sums hides that
// latency by advancing three independent chains in one loop, which is
// how a v6 snapshot's sections are verified and sealed: the whole table
// costs about as much as its longest section. Its results are the serial
// digests, bit for bit, so no stored checksum changes.
package fnv1a

import (
	"cmp"
	"slices"
)

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

// lanes is how many digests Sums advances together. Three chains cover
// the multiplier's latency on the hosts measured; two leave it idle and
// four gain nothing over three.
const lanes = 3

// Sums returns Sum(p) for every payload p, in the order given.
//
// The payloads are taken longest first, three at a time: one loop
// advances the three digests over as many bytes as the shortest of them
// has left, and a lane that finishes takes the next payload. When no
// payload is waiting, the last one or two finish serially. Longest first
// keeps the long payloads in lockstep with each other, so the wall time
// approaches that of the longest payload alone.
func Sums(payloads [][]byte) []uint64 {
	sums := make([]uint64, len(payloads))
	order := make([]int, len(payloads))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(len(payloads[b]), len(payloads[a])) })

	type lane struct {
		idx  int
		rest []byte
		h    uint64
	}
	var ls [lanes]lane
	next := 0
	for ; next < lanes && next < len(order); next++ {
		ls[next] = lane{idx: order[next], rest: payloads[order[next]], h: Offset}
	}
	if next == lanes {
		for {
			n := min(len(ls[0].rest), len(ls[1].rest), len(ls[2].rest))
			ls[0].h, ls[1].h, ls[2].h = update3(ls[0].h, ls[1].h, ls[2].h,
				ls[0].rest[:n], ls[1].rest[:n], ls[2].rest[:n])
			refilled := true
			for i := range ls {
				ls[i].rest = ls[i].rest[n:]
				if len(ls[i].rest) > 0 {
					continue
				}
				if next == len(order) {
					refilled = false
					continue
				}
				sums[ls[i].idx] = ls[i].h
				ls[i] = lane{idx: order[next], rest: payloads[order[next]], h: Offset}
				next++
			}
			if !refilled {
				break
			}
		}
	}
	// What the lanes still hold finishes serially: the last one or two
	// payloads, or every payload when there were fewer than three. An
	// emptied lane just stores its digest.
	for i := 0; i < min(lanes, len(order)); i++ {
		sums[ls[i].idx] = Update(ls[i].h, ls[i].rest)
	}
	return sums
}

// update3 advances three digests over three equally long byte runs.
func update3(ha, hb, hc uint64, a, b, c []byte) (uint64, uint64, uint64) {
	b = b[:len(a)]
	c = c[:len(a)]
	for i, x := range a {
		ha = (ha ^ uint64(x)) * Prime
		hb = (hb ^ uint64(b[i])) * Prime
		hc = (hc ^ uint64(c[i])) * Prime
	}
	return ha, hb, hc
}
