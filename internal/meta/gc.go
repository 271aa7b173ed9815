package meta

import (
	"errors"
	"fmt"

	"repro/internal/chunk"
)

// Garbage-collection liveness analysis over the versioned segment trees.
//
// Trees are persistent: version v's tree references untouched subtrees of
// older versions by their version label, so a node or chunk of a pruned
// version may still be live. The key structural fact this file relies on:
// if a node (or leaf chunk) labeled u is reachable from ANY retained
// version w >= floor >= u, it is also reachable from the floor version's
// tree — the range it covers was untouched in (u, w], hence untouched in
// (u, floor], so descending the floor tree at that position resolves to
// the same label.
//
// Consequently, when the retention floor advances from F1 to F2, the
// complete dead set is a diff of the two adjacent floor trees:
//
//	dead = (reachable(F1)  ∪  owned(v) for v in (F1, F2))  \  reachable(F2)
//
// reachable(F1) covers everything with labels <= F1 that survived earlier
// sweeps (exactly because it was reachable from the old floor); the owned
// subgraphs cover the versions pruned by this advance; and anything still
// referenced by any retained snapshot is inside reachable(F2).

// LiveSet is a set of tree nodes plus the chunk references their leaves
// carry (the reference keeps the replica addresses a delete must visit).
type LiveSet struct {
	Nodes  map[NodeKey]struct{}
	Chunks map[chunk.Key]ChunkRef
	// Leaves, when enabled with TrackLeaves, maps each live chunk to every
	// leaf node referencing it (abort repair copies leaves, so one chunk
	// can appear under several versions). The repair engine piggybacks on
	// the liveness walk through this: the same batched descent that powers
	// GC yields the chunk → replica-set placement map AND the exact leaf
	// set a replica patch must rewrite. Nil (untracked) for plain GC.
	Leaves map[chunk.Key][]NodeKey
}

// NewLiveSet returns an empty set.
func NewLiveSet() *LiveSet {
	return &LiveSet{
		Nodes:  make(map[NodeKey]struct{}),
		Chunks: make(map[chunk.Key]ChunkRef),
	}
}

// TrackLeaves enables per-chunk leaf-key recording on subsequent walks
// (repair's placement scan) and returns the set for chaining.
func (l *LiveSet) TrackLeaves() *LiveSet {
	if l.Leaves == nil {
		l.Leaves = make(map[chunk.Key][]NodeKey)
	}
	return l
}

// Has reports whether the node key is in the set.
func (l *LiveSet) Has(k NodeKey) bool {
	_, ok := l.Nodes[k]
	return ok
}

// HasChunk reports whether the chunk key is in the set.
func (l *LiveSet) HasChunk(k chunk.Key) bool {
	_, ok := l.Chunks[k]
	return ok
}

// Tree names one version's segment tree: a root of a multi-root walk.
// Version 0 and empty trees contribute nothing.
type Tree struct {
	Version    uint64
	SizeChunks uint64
}

// CollectLive walks the full tree of one version (a retention floor) and
// returns every reachable node key and leaf chunk reference. Definitively
// missing nodes (ErrNodeNotFound from every replica) are tolerated by
// skipping their subtree: an abort-repair that crashed half-way leaves
// holes, and a hole references nothing. Any OTHER failure — a replica
// unreachable, an RPC timeout — aborts the walk with an error: an
// incomplete live set would make the sweep delete data that retained
// snapshots still reference. sizeChunks is the blob size in chunks at
// that version.
func CollectLive(store Store, blob, version, sizeChunks uint64) (*LiveSet, error) {
	live := NewLiveSet()
	if err := CollectLiveInto(live, store, blob, []Tree{{version, sizeChunks}}); err != nil {
		return nil, err
	}
	return live, nil
}

// CollectLiveInto folds the reachable sets of several versions' trees
// into an existing LiveSet in ONE level-order walk: each round fetches the
// frontier of every tree at once, so walking all retained versions costs
// about one batched round per tree level, not one per level per version.
// Subtrees shared between the trees (or already in the set) are fetched
// once. Walking every retained version (rather than trusting the floor
// tree alone) is what makes the sweep safe when the floor lands on an
// aborted version whose abort-repair never wove a tree — an empty or
// partial floor tree then under-counts liveness, and the newer retained
// roots still protect everything they reference. On error the set is
// incomplete and must be discarded.
func CollectLiveInto(live *LiveSet, store Store, blob uint64, trees []Tree) error {
	w := gcWalker{
		store:  store,
		set:    live,
		desc:   "liveness",
		follow: func(_ NodeKey, childVer uint64) bool { return childVer != ZeroVersion },
	}
	return w.walk(blob, trees)
}

// gcBatch bounds the node keys fetched per walk round (the GC twin of the
// read path's specBudget): a full-floor walk over a huge blob degrades
// into several bounded rounds instead of one unbounded request.
const gcBatch = specBudget

// gcWalker descends segment trees for the GC analyses in level-order
// batched rounds over all of its roots: each round's frontier goes to the
// store in one GetNodes call (the DHT client turns that into one RPC per
// metadata provider), so a walk costs O(providers × tree depth) round
// trips however many roots it starts from. follow filters which children
// are descended, given the parent's key and the child's label (everything
// non-zero for the liveness walk, only the parent's own label for the
// owned walk). A key enters the set when it is queued, so it is queued —
// and fetched — at most once per walk.
//
// The destructive-use contract is preserved PER KEY: the batched read
// cannot distinguish "absent from the replica that answered" from "its
// replica was unreachable", so every nil entry is re-asked through
// GetNode, which consults the full ring and returns ErrNodeNotFound only
// on definitive absence (a prunable hole) — any transport failure aborts
// the walk instead, because an incomplete live set would let the sweep
// delete data retained snapshots still reference. Genuine holes are rare
// (a crashed abort-repair), so the follow-ups stay off the hot path.
type gcWalker struct {
	store  Store
	set    *LiveSet
	desc   string
	follow func(parent NodeKey, childVer uint64) bool
	// holes records the definitive holes met so far: they leave the set
	// but must not be queued again.
	holes map[NodeKey]struct{}
}

// enqueue queues k unless the walk (or the set it extends) already has it.
func (w *gcWalker) enqueue(pending []NodeKey, k NodeKey) []NodeKey {
	if _, hole := w.holes[k]; hole || w.set.Has(k) {
		return pending
	}
	w.set.Nodes[k] = struct{}{}
	return append(pending, k)
}

func (w *gcWalker) walk(blob uint64, trees []Tree) error {
	var pending []NodeKey
	for _, t := range trees {
		if t.Version != ZeroVersion && t.SizeChunks > 0 {
			pending = w.enqueue(pending, NodeKey{Blob: blob, Version: t.Version, Off: 0, Size: NextPow2(t.SizeChunks)})
		}
	}
	for len(pending) > 0 {
		batch := pending
		if len(batch) > gcBatch {
			batch, pending = batch[:gcBatch], pending[gcBatch:]
		} else {
			pending = nil
		}
		nodes, err := w.store.GetNodes(batch)
		if err != nil {
			return fmt.Errorf("meta: %s walk: %w", w.desc, err)
		}
		if len(nodes) != len(batch) {
			return fmt.Errorf("meta: %s walk: store returned %d nodes for %d keys", w.desc, len(nodes), len(batch))
		}
		for i, node := range nodes {
			key := batch[i]
			if node == nil {
				n, err := w.store.GetNode(key)
				if errors.Is(err, ErrNodeNotFound) {
					// Definitive hole (crashed writer); references nothing.
					delete(w.set.Nodes, key)
					if w.holes == nil {
						w.holes = make(map[NodeKey]struct{})
					}
					w.holes[key] = struct{}{}
					continue
				}
				if err != nil {
					return fmt.Errorf("meta: %s walk at %s: %w", w.desc, key, err)
				}
				node = n
			}
			if node.Leaf {
				if !node.Chunk.IsZero() {
					w.set.Chunks[node.Chunk.Key] = node.Chunk
					if w.set.Leaves != nil {
						// Each leaf key is queued once per walk, so it is
						// recorded once.
						w.set.Leaves[node.Chunk.Key] = append(w.set.Leaves[node.Chunk.Key], key)
					}
				}
				continue
			}
			half := key.Size / 2
			if w.follow(key, node.LeftVer) {
				pending = w.enqueue(pending, NodeKey{Blob: key.Blob, Version: node.LeftVer, Off: key.Off, Size: half})
			}
			if w.follow(key, node.RightVer) {
				pending = w.enqueue(pending, NodeKey{Blob: key.Blob, Version: node.RightVer, Off: key.Off + half, Size: half})
			}
		}
	}
	return nil
}

// AddOwned folds the owned subgraphs of several versions into the set in
// one walk: exactly the nodes each version's writer wove, i.e. those
// labeled with the version. Within a version's tree every owned node's
// parent is also owned (Weave builds parents of everything it builds), so
// the enumeration descends from each root and only follows children
// carrying their parent's label. Definitively missing nodes are skipped;
// transport failures abort, as in CollectLiveInto.
func (l *LiveSet) AddOwned(store Store, blob uint64, trees []Tree) error {
	w := gcWalker{
		store:  store,
		set:    l,
		desc:   "owned",
		follow: func(parent NodeKey, childVer uint64) bool { return childVer == parent.Version },
	}
	return w.walk(blob, trees)
}

// VersionNodes enumerates one version's owned subgraph standalone.
func VersionNodes(store Store, blob, version, sizeChunks uint64) ([]NodeKey, []ChunkRef, error) {
	set := NewLiveSet()
	if err := set.AddOwned(store, blob, []Tree{{version, sizeChunks}}); err != nil {
		return nil, nil, err
	}
	nodes := make([]NodeKey, 0, len(set.Nodes))
	for k := range set.Nodes {
		nodes = append(nodes, k)
	}
	chunks := make([]ChunkRef, 0, len(set.Chunks))
	for _, c := range set.Chunks {
		chunks = append(chunks, c)
	}
	return nodes, chunks, nil
}

// DiffDead returns the members of candidates absent from live: the nodes
// and chunks that die when the retention floor advances. Chunk references
// are deduplicated by key (abort-repair copies leaves, so one chunk can
// appear under several versions' leaves).
func DiffDead(candidates, live *LiveSet) (deadNodes []NodeKey, deadChunks []ChunkRef) {
	for k := range candidates.Nodes {
		if !live.Has(k) {
			deadNodes = append(deadNodes, k)
		}
	}
	for k, c := range candidates.Chunks {
		if !live.HasChunk(k) {
			deadChunks = append(deadChunks, c)
		}
	}
	return deadNodes, deadChunks
}
