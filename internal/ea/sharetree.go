package ea

import (
	"crypto/sha256"

	"ddemos/internal/store"
)

// A VC node's receipt shares of one ballot are bound by one EA signature
// over a Merkle tree (RFC 6962 hashing and shape). The leaves are the
// node's 2m lines in (part, row) order, leaf i = part·m + row:
//
//	leaf = SHA-256(0x00 ‖ lineHash ‖ share)
//	node = SHA-256(0x01 ‖ left ‖ right)
//
// and a tree of n > 1 leaves splits at the largest power of two below n. A
// share is disclosed with its audit path: the sibling hashes from its leaf
// up to the root, concatenated. The receiver folds the share up the path at
// the position it located itself from the vote code, so a share cannot be
// moved to another row, and checks the EA's signature on the root it gets.

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
// what the EA signs into bd.ShareSig.
func ShareRoot(bd *store.BallotData) [32]byte {
	return shareTreeRoot(shareLeaves(bd))
}

// SharePath is the audit path of the share at (part, row) in bd: the
// sibling hashes from its leaf to the root, ShareHashSize bytes each.
func SharePath(bd *store.BallotData, part uint8, row int) []byte {
	return sharePath(shareLeaves(bd), int(part)*len(bd.Lines[0])+row)
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

// FoldSharePath recomputes the root a share claims: the share as the leaf
// at (part, row) of the node's own record bd — the line's hash commitment
// and the tree's shape come from bd, the share and path from the sender. It
// reports false when the path does not have the length that position
// needs.
func FoldSharePath(bd *store.BallotData, part uint8, row int, share [32]byte, path []byte) ([32]byte, bool) {
	m := len(bd.Lines[0])
	leaf := shareHash(leafPrefix, &bd.Lines[part][row].Hash, &share)
	return foldShare(leaf, int(part)*m+row, 2*m, path)
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
