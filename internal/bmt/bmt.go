// Package bmt is the repository's one Merkle tree: arity 8 over 64-bit
// leaf hashes, each parent hashing its children's hashes up to a root.
//
// It serves three callers. ASIT's and STAR's cache-trees (§II-D) are
// trees of this kind over shadow slots and per-set MACs, with the root in
// an on-chip non-volatile register the caller keeps. The SIT-vs-BMT
// ablation uses it as the Bonsai Merkle Tree of §II-C (Rogers et al.,
// MICRO'07) over counter blocks: because each parent hash takes its
// children's hashes as input, an update recomputes the whole branch
// sequentially — the cost that motivates the paper's choice of SIT, whose
// per-level counters update in parallel.
package bmt

import (
	"encoding/binary"
	"fmt"

	"steins/internal/crypt"
)

// Arity is the tree fan-out.
const Arity = 8

// Tree holds the leaf hashes and the interior levels. Levels shrink by
// Arity until one is at most Arity wide; the root hashes that top level
// as level len(levels). A group hash's message is level<<32|group
// followed by the children, each little-endian.
type Tree struct {
	key    crypt.Key
	mac    crypt.MAC
	levels [][]uint64 // levels[0] are the leaves
	// msg is the group-hash message, reused: a buffer on the stack would
	// escape through the crypt.MAC call and allocate per hash.
	msg [8 + 8*Arity]byte
}

// New builds a tree over leaves, which it keeps, and hashes its interior.
func New(leaves []uint64, key crypt.Key, mac crypt.MAC) *Tree {
	if len(leaves) == 0 {
		panic("bmt: need at least one leaf")
	}
	t := &Tree{key: key, mac: mac, levels: [][]uint64{leaves}}
	for n := len(leaves); n > Arity; {
		n = (n + Arity - 1) / Arity
		t.levels = append(t.levels, make([]uint64, n))
	}
	t.Rebuild()
	return t
}

// LeafHash authenticates a 64-byte line bound to its leaf index i: the
// MAC of the line followed by i, little-endian.
func LeafHash(key crypt.Key, mac crypt.MAC, i uint64, line [64]byte) uint64 {
	var msg [72]byte
	copy(msg[:64], line[:])
	binary.LittleEndian.PutUint64(msg[64:], i)
	return mac.Sum64(key, msg[:])
}

// Levels returns the tree's levels, leaves first; the caller must not
// resize them.
func (t *Tree) Levels() [][]uint64 { return t.levels }

// Leaves returns the leaf level. A caller that writes it directly calls
// Rebuild before it trusts the interior again.
func (t *Tree) Leaves() []uint64 { return t.levels[0] }

// Root hashes the top level.
func (t *Tree) Root() uint64 { return t.hash(len(t.levels), 0) }

// hash is the group hash of node group at level over its children one
// level down; at level len(levels) it is the root.
func (t *Tree) hash(level int, group uint64) uint64 {
	below := t.levels[level-1]
	lo := group * Arity
	binary.LittleEndian.PutUint64(t.msg[:8], uint64(level)<<32|group)
	n := 8
	for _, h := range below[lo:min(lo+Arity, uint64(len(below)))] {
		binary.LittleEndian.PutUint64(t.msg[n:], h)
		n += 8
	}
	return t.mac.Sum64(t.key, t.msg[:n])
}

// Set replaces leaf i with h and rehashes its path up to the top level.
// It returns the update's hash count as the hardware performs it, one
// after another because each hash takes the one below as input: h, one
// per interior level, and the root.
func (t *Tree) Set(i int, h uint64) uint64 {
	t.levels[0][i] = h
	for l := 1; l < len(t.levels); l++ {
		i /= Arity
		t.levels[l][i] = t.hash(l, uint64(i))
	}
	return uint64(len(t.levels)) + 1
}

// Rebuild rehashes every interior level from the leaves and returns the
// root and the hash count: every interior node plus the root (the leaves
// are the caller's). The root is returned, not kept: the caller compares
// it with its trusted copy.
func (t *Tree) Rebuild() (root, hashes uint64) {
	for l := 1; l < len(t.levels); l++ {
		for g := range t.levels[l] {
			t.levels[l][g] = t.hash(l, uint64(g))
		}
		hashes += uint64(len(t.levels[l]))
	}
	return t.Root(), hashes + 1
}

// Restore adopts checkpointed levels after checking that they have this
// tree's number of levels and level widths.
func (t *Tree) Restore(levels [][]uint64) error {
	if len(levels) != len(t.levels) {
		return fmt.Errorf("state has %d tree levels, scheme has %d", len(levels), len(t.levels))
	}
	for i := range t.levels {
		if len(levels[i]) != len(t.levels[i]) {
			return fmt.Errorf("state tree level %d has %d nodes, scheme has %d", i, len(levels[i]), len(t.levels[i]))
		}
	}
	t.levels = levels
	return nil
}
