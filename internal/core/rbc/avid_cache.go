package rbc

import (
	"crypto/sha256"
	"errors"

	"repro/internal/crypto/merkle"
	"repro/internal/crypto/rs"
	"repro/internal/memo"
)

// AVID delivery re-encodes the decoded payload and rebuilds the Merkle tree
// to verify it against the dispersal root — n−k parity rows plus O(n) hashes
// per delivering party. The verification is a pure function of
// (k, n, root, payload), so when n simulated parties deliver the same
// broadcast the work is identical n times over. treeCache remembers payloads
// that already verified against a root; only successful verifications are
// cached, so a hit can never admit an inconsistent dispersal. The cache is
// process-wide (sharing across simulated parties is the point) and bounded
// by memo.Map's two generations.
type treeCacheKey struct {
	k, n   int
	root   merkle.Root
	digest [sha256.Size]byte
}

const treeCacheCap = 4096

var treeCache = memo.New[treeCacheKey, struct{}](treeCacheCap)

var errRootMismatch = errors.New("rbc: payload does not re-encode to the dispersal root")

// verifyRoot reports whether value re-encodes under codec to the chunk set
// behind root, consulting the dedup cache first. Hit/miss traffic is
// exported through rs.Stats (TreeHits/TreeBuilds).
func verifyRoot(codec *rs.Codec, k, n int, root merkle.Root, value []byte) bool {
	key := treeCacheKey{k: k, n: n, root: root, digest: sha256.Sum256(value)}
	built := false
	_, err := treeCache.Load(key, func() (struct{}, error) {
		built = true
		rs.NoteTreeBuild()
		chunks, err := codec.Encode(value)
		if err != nil {
			return struct{}{}, err
		}
		tree, err := merkle.Build(chunks)
		if err != nil {
			return struct{}{}, err
		}
		if tree.Root() != root {
			return struct{}{}, errRootMismatch
		}
		return struct{}{}, nil
	})
	if !built {
		rs.NoteTreeHit()
	}
	return err == nil
}

// seedRoot records a (root, value) pair the caller has just proven by
// construction — the sender builds the tree itself, so its own dispersal
// never needs re-verifying.
func seedRoot(k, n int, root merkle.Root, value []byte) {
	treeCache.Put(treeCacheKey{k: k, n: n, root: root, digest: sha256.Sum256(value)}, struct{}{})
}
