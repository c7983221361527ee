package ea

import (
	"bytes"
	"crypto/sha256"
	"math/rand/v2"
	"testing"

	"ddemos/internal/store"
)

// randomRecord is a ballot record of m rows per part with random hash
// commitments and shares: the tree never interprets them.
func randomRecord(rng *rand.Rand, m int) *store.BallotData {
	bd := &store.BallotData{Serial: 1}
	for part := range bd.Lines {
		bd.Lines[part] = make([]store.Line, m)
		for row := range bd.Lines[part] {
			l := &bd.Lines[part][row]
			for i := range l.Hash {
				l.Hash[i] = byte(rng.IntN(256))
				l.Share[i] = byte(rng.IntN(256))
			}
		}
	}
	return bd
}

// levelRoot is the reference construction: hash neighbours pairwise, level
// by level, carrying an unpaired last node up unchanged. For every leaf
// count it builds the same tree as RFC 6962's split at the largest power of
// two below n.
func levelRoot(bd *store.BallotData) [32]byte {
	var level [][32]byte
	for part := range bd.Lines {
		for _, l := range bd.Lines[part] {
			level = append(level, sha256.Sum256(append(append([]byte{0x00}, l.Hash[:]...), l.Share[:]...)))
		}
	}
	return levelFold(level)
}

// levelFold folds one level of hashes to its root, pairwise.
func levelFold(level [][32]byte) [32]byte {
	for len(level) > 1 {
		var next [][32]byte
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, sha256.Sum256(append(append([]byte{0x01}, level[i][:]...), level[i+1][:]...)))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// TestShareTreeRootAndPaths checks the tree at every share count from 2m = 2
// to 2m = 18: the root matches the reference construction; every share
// folds up its own path to the root, at its own position only; and a path
// with a flipped bit, a hash too few or a hash too many does not reach it.
func TestShareTreeRootAndPaths(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 0x5EED)) //nolint:gosec // test data only
	for m := 1; m <= 9; m++ {
		bd := randomRecord(rng, m)
		root := ShareRoot(bd)
		if root != levelRoot(bd) {
			t.Fatalf("m = %d: root differs from the reference construction", m)
		}
		depth := 0
		for 1<<depth < 2*m {
			depth++
		}
		for part := uint8(0); part < 2; part++ {
			for row := 0; row < m; row++ {
				share := bd.Lines[part][row].Share
				path := SharePath(bd, part, row)
				if len(path)%ShareHashSize != 0 || len(path)/ShareHashSize > depth {
					t.Fatalf("m = %d (%d, %d): path of %d bytes", m, part, row, len(path))
				}
				if got, ok := FoldSharePath(bd, part, row, 0, 1, share, path); !ok || got != root {
					t.Fatalf("m = %d (%d, %d): share does not fold to the root", m, part, row)
				}
				for p := uint8(0); p < 2; p++ {
					for r := 0; r < m; r++ {
						if p == part && r == row {
							continue
						}
						if got, ok := FoldSharePath(bd, p, r, 0, 1, share, path); ok && got == root {
							t.Fatalf("m = %d: the share of (%d, %d) folds to the root at (%d, %d)", m, part, row, p, r)
						}
					}
				}
				for bit := 0; bit < 8*len(path); bit++ {
					bad := bytes.Clone(path)
					bad[bit/8] ^= 1 << (bit % 8)
					if got, ok := FoldSharePath(bd, part, row, 0, 1, share, bad); ok && got == root {
						t.Fatalf("m = %d (%d, %d): path with bit %d flipped still folds to the root", m, part, row, bit)
					}
				}
				for _, bad := range [][]byte{
					path[:len(path)-ShareHashSize],
					append(bytes.Clone(path), make([]byte, ShareHashSize)...),
				} {
					if _, ok := FoldSharePath(bd, part, row, 0, 1, share, bad); ok {
						t.Fatalf("m = %d (%d, %d): a %d-byte path for a %d-byte one was accepted", m, part, row, len(bad), len(path))
					}
				}
			}
		}
	}
}

// TestBallotTreeBindsNodes checks the ballot level at every node count from
// Nv = 1 to 9: the ballot root is the reference construction over the node
// roots, every share of every node folds up its full path (share path, then
// node path) to it at its own node index only, and a node path one hash
// short, or one taken from another node, does not reach it.
func TestBallotTreeBindsNodes(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 0x5EED)) //nolint:gosec // test data only
	const m = 3
	for nv := 1; nv <= 9; nv++ {
		bds := make([]*store.BallotData, nv)
		roots := make([][32]byte, nv)
		for j := range bds {
			bds[j] = randomRecord(rng, m)
			roots[j] = ShareRoot(bds[j])
		}
		root := shareTreeRoot(roots)
		if root != levelFold(roots) {
			t.Fatalf("Nv = %d: ballot root differs from the reference construction", nv)
		}
		for j, bd := range bds {
			bd.NodePath = sharePath(roots, j)
			if len(bd.NodePath) != pathHashes(j, nv)*ShareHashSize {
				t.Fatalf("Nv = %d node %d: node path of %d bytes", nv, j, len(bd.NodePath))
			}
		}
		for j, bd := range bds {
			for part := uint8(0); part < 2; part++ {
				for row := 0; row < m; row++ {
					share := bd.Lines[part][row].Share
					path := SharePath(bd, part, row)
					if got, ok := FoldSharePath(bd, part, row, j, nv, share, path); !ok || got != root {
						t.Fatalf("Nv = %d node %d (%d, %d): share does not fold to the ballot root", nv, j, part, row)
					}
					own := path[:len(path)-len(bd.NodePath)]
					for k := 0; k < nv; k++ {
						if k == j {
							continue
						}
						if got, ok := FoldSharePath(bd, part, row, k, nv, share, path); ok && got == root {
							t.Fatalf("Nv = %d: node %d's share folds to the root as node %d's", nv, j, k)
						}
						moved := append(bytes.Clone(own), bds[k].NodePath...)
						if got, ok := FoldSharePath(bd, part, row, j, nv, share, moved); ok && got == root {
							t.Fatalf("Nv = %d: node %d's share folds to the root along node %d's node path", nv, j, k)
						}
					}
					if nv > 1 {
						if _, ok := FoldSharePath(bd, part, row, j, nv, share, path[:len(path)-ShareHashSize]); ok {
							t.Fatalf("Nv = %d node %d: a node path one hash short was accepted", nv, j)
						}
					}
				}
			}
		}
	}
}
