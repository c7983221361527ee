package ea

import (
	"crypto/sha256"

	"ddemos/internal/store"
)

// A ballot's receipt shares are bound by one EA signature over a two-level
// Merkle tree (RFC 6962 hashing and shape). Each VC node's 2m lines, in
// (part, row) order, are the leaves of the node's share tree, leaf
// i = part·m + row:
//
//	leaf = SHA-256(0x00 ‖ lineHash ‖ share)
//	node = SHA-256(0x01 ‖ left ‖ right)
//
// and the Nv share-tree roots, in node order, are the leaves of the ballot
// tree, whose root the EA signs. A tree of n > 1 leaves splits at the
// largest power of two below n. A share is disclosed with its audit path:
// the sibling hashes from its leaf up to its node's root, then those from
// that root up to the ballot root, concatenated. The receiver folds the
// share up the path at the row it located itself from the vote code and at
// the sender's node index, so a share cannot be moved to another row or
// node, and checks the EA's signature on the root it gets.

// ShareHashSize is the length of one hash on a share's audit path.
const ShareHashSize = sha256.Size

const (
	leafPrefix = 0x00 // leaf: a line's hash commitment and share
	nodePrefix = 0x01 // inner node: its two children
)

// shareHash is SHA-256(prefix ‖ a ‖ b).
func shareHash(prefix byte, a, b *[32]byte) [32]byte {
	var buf [1 + 32 + 32]byte
	buf[0] = prefix
	copy(buf[1:], a[:])
	copy(buf[33:], b[:])
	return sha256.Sum256(buf[:])
}

// shareSplit is the size of the left subtree of an n-leaf tree, n > 1: the
// largest power of two below n.
func shareSplit(n int) int {
	k := 1
	for k<<1 < n {
		k <<= 1
	}
	return k
}

func shareLeaves(bd *store.BallotData) [][32]byte {
	leaves := make([][32]byte, 0, len(bd.Lines[0])+len(bd.Lines[1]))
	for part := range bd.Lines {
		for row := range bd.Lines[part] {
			l := &bd.Lines[part][row]
			leaves = append(leaves, shareHash(leafPrefix, &l.Hash, &l.Share))
		}
	}
	return leaves
}

func shareTreeRoot(leaves [][32]byte) [32]byte {
	if len(leaves) == 1 {
		return leaves[0]
	}
	k := shareSplit(len(leaves))
	l, r := shareTreeRoot(leaves[:k]), shareTreeRoot(leaves[k:])
	return shareHash(nodePrefix, &l, &r)
}

// ShareRoot is the Merkle root over a node's receipt shares of one ballot:
// its leaf in the ballot tree.
func ShareRoot(bd *store.BallotData) [32]byte {
	return shareTreeRoot(shareLeaves(bd))
}

// SharePath is the audit path of the share at (part, row) in bd up to the
// ballot root: the sibling hashes from its leaf to the node's root, then the
// node's path in the ballot tree (bd.NodePath), ShareHashSize bytes each.
func SharePath(bd *store.BallotData, part uint8, row int) []byte {
	return append(sharePath(shareLeaves(bd), int(part)*len(bd.Lines[0])+row), bd.NodePath...)
}

// sharePath is the audit path of leaf i: the path within the subtree that
// holds it, then the other subtree's root.
func sharePath(leaves [][32]byte, i int) []byte {
	if len(leaves) == 1 {
		return nil
	}
	k := shareSplit(len(leaves))
	if i < k {
		sib := shareTreeRoot(leaves[k:])
		return append(sharePath(leaves[:k], i), sib[:]...)
	}
	sib := shareTreeRoot(leaves[:k])
	return append(sharePath(leaves[k:], i-k), sib[:]...)
}

// FoldSharePath recomputes the ballot root a share claims: the share as the
// leaf at (part, row) of node's share tree, that tree's root as leaf node of
// the nv-leaf ballot tree. The line's hash commitment and the share tree's
// shape come from the receiver's own record bd, the share and path from the
// sender. It reports false when the path does not have the length those
// positions need.
func FoldSharePath(bd *store.BallotData, part uint8, row, node, nv int, share [32]byte, path []byte) ([32]byte, bool) {
	m := len(bd.Lines[0])
	i := int(part)*m + row
	cut := pathHashes(i, 2*m) * ShareHashSize
	if len(path) < cut {
		return [32]byte{}, false
	}
	leaf := shareHash(leafPrefix, &bd.Lines[part][row].Hash, &share)
	root, ok := foldShare(leaf, i, 2*m, path[:cut])
	if !ok {
		return root, false
	}
	return foldShare(root, node, nv, path[cut:])
}

// pathHashes is the length, in hashes, of leaf i's audit path in an n-leaf
// tree.
func pathHashes(i, n int) int {
	d := 0
	for ; n > 1; d++ {
		if k := shareSplit(n); i < k {
			n = k
		} else {
			i, n = i-k, n-k
		}
	}
	return d
}

// foldShare folds h, the leaf at index i of an n-leaf tree, up path.
func foldShare(h [32]byte, i, n int, path []byte) ([32]byte, bool) {
	if n == 1 {
		return h, len(path) == 0
	}
	if len(path) < ShareHashSize {
		return h, false
	}
	rest, sib := path[:len(path)-ShareHashSize], [32]byte(path[len(path)-ShareHashSize:])
	k := shareSplit(n)
	if i < k {
		sub, ok := foldShare(h, i, k, rest)
		return shareHash(nodePrefix, &sub, &sib), ok
	}
	sub, ok := foldShare(h, i-k, n-k, rest)
	return shareHash(nodePrefix, &sib, &sub), ok
}
