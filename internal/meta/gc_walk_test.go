package meta_test

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/meta"
)

// recordingStore counts every key a walk asks for, per call kind.
type recordingStore struct {
	meta.Store
	mu       sync.Mutex
	batched  map[meta.NodeKey]int // keys asked through GetNodes
	single   map[meta.NodeKey]int // keys re-asked through GetNode
	getNodes int                  // GetNodes calls
}

func newRecordingStore(s meta.Store) *recordingStore {
	return &recordingStore{Store: s, batched: map[meta.NodeKey]int{}, single: map[meta.NodeKey]int{}}
}

func (r *recordingStore) GetNodes(keys []meta.NodeKey) ([]*meta.Node, error) {
	r.mu.Lock()
	r.getNodes++
	for _, k := range keys {
		r.batched[k]++
	}
	r.mu.Unlock()
	return r.Store.GetNodes(keys)
}

func (r *recordingStore) GetNode(key meta.NodeKey) (*meta.Node, error) {
	r.mu.Lock()
	r.single[key]++
	r.mu.Unlock()
	return r.Store.GetNode(key)
}

// assertFetchedOnce fails if the walk asked for any key twice in the same
// form, or re-asked through GetNode a key it never batched.
func (r *recordingStore) assertFetchedOnce(t *testing.T, walk string) {
	t.Helper()
	for k, n := range r.batched {
		if n > 1 {
			t.Errorf("%s walk: key %s fetched %d times", walk, k, n)
		}
	}
	for k, n := range r.single {
		if n > 1 || r.batched[k] == 0 {
			t.Errorf("%s walk: key %s re-asked %d times (batched %d)", walk, k, n, r.batched[k])
		}
	}
}

// referenceLive is the per-version union the multi-root walk replaced: a
// node-at-a-time recursive walk of each tree in turn, skipping holes and
// subtrees already visited. owned restricts each walk to children carrying
// the root's label (the owned subgraph).
func referenceLive(store meta.Store, blob uint64, trees []meta.Tree, owned bool) (*meta.LiveSet, error) {
	live := meta.NewLiveSet().TrackLeaves()
	var walk func(k meta.NodeKey) error
	walk = func(k meta.NodeKey) error {
		if live.Has(k) {
			return nil
		}
		n, err := store.GetNode(k)
		if errors.Is(err, meta.ErrNodeNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		live.Nodes[k] = struct{}{}
		if n.Leaf {
			if !n.Chunk.IsZero() {
				live.Chunks[n.Chunk.Key] = n.Chunk
				live.Leaves[n.Chunk.Key] = append(live.Leaves[n.Chunk.Key], k)
			}
			return nil
		}
		half := k.Size / 2
		for _, c := range []meta.NodeKey{
			{Blob: blob, Version: n.LeftVer, Off: k.Off, Size: half},
			{Blob: blob, Version: n.RightVer, Off: k.Off + half, Size: half},
		} {
			if c.Version == meta.ZeroVersion || (owned && c.Version != k.Version) {
				continue
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, tr := range trees {
		if tr.Version == meta.ZeroVersion || tr.SizeChunks == 0 {
			continue
		}
		if err := walk(meta.NodeKey{Blob: blob, Version: tr.Version, Size: meta.NextPow2(tr.SizeChunks)}); err != nil {
			return nil, err
		}
	}
	return live, nil
}

func assertLiveEqual(t *testing.T, label string, got, want *meta.LiveSet) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Errorf("%s: %d nodes, want %d", label, len(got.Nodes), len(want.Nodes))
	}
	for k := range want.Nodes {
		if !got.Has(k) {
			t.Errorf("%s: missing node %s", label, k)
		}
	}
	if len(got.Chunks) != len(want.Chunks) {
		t.Errorf("%s: %d chunks, want %d", label, len(got.Chunks), len(want.Chunks))
	}
	for k, w := range want.Chunks {
		g, ok := got.Chunks[k]
		if !ok || g.Length != w.Length || !slices.Equal(g.Providers, w.Providers) {
			t.Errorf("%s: chunk %v = %+v, want %+v", label, k, g, w)
		}
	}
	if len(got.Leaves) != len(want.Leaves) {
		t.Errorf("%s: leaves for %d chunks, want %d", label, len(got.Leaves), len(want.Leaves))
	}
	byKey := func(a, b meta.NodeKey) int {
		if a.Version != b.Version {
			return int(a.Version) - int(b.Version)
		}
		return int(a.Off) - int(b.Off)
	}
	for k, w := range want.Leaves {
		g := slices.Clone(got.Leaves[k])
		w = slices.Clone(w)
		slices.SortFunc(g, byKey)
		slices.SortFunc(w, byKey)
		if !slices.Equal(g, w) {
			t.Errorf("%s: chunk %v leaves %v, want %v", label, k, g, w)
		}
	}
}

// weaveWithAbort weaves history in order, except that version aborted is
// never stored: its writer died before weaving and no identity repair ran,
// so its root and every node it would have owned are holes. The publish
// frontier stops behind it, so every later version is woven with all the
// versions since the frontier in flight, and trees that overlap the dead
// write reference the missing nodes.
func weaveWithAbort(t *testing.T, store meta.Store, blob uint64, history []refWrite, aborted uint64) {
	t.Helper()
	var pubVersion, pubSize uint64
	var inflight []meta.WriteDesc
	for _, w := range history {
		desc := meta.WriteDesc{Version: w.version, StartChunk: w.start, EndChunk: w.end, SizeChunks: w.sizeChunks}
		if w.version == aborted {
			inflight = append(inflight, desc)
			continue
		}
		leaves := make([]meta.ChunkRef, w.end-w.start)
		for i := range leaves {
			leaves[i] = meta.ChunkRef{
				Providers: []string{"dp"},
				Key:       chunk.Key{Blob: blob, Version: w.version, Index: w.start + uint64(i)},
				Length:    100,
			}
		}
		nodes, _, err := meta.Weave(store, meta.WeaveInput{
			Blob: blob, Version: w.version,
			StartChunk: w.start, EndChunk: w.end, SizeChunks: w.sizeChunks,
			Leaves: leaves, InFlight: inflight,
			PubVersion: pubVersion, PubSizeChunks: pubSize,
		})
		if err != nil {
			t.Fatalf("weave v%d: %v", w.version, err)
		}
		if err := store.PutNodes(nodes); err != nil {
			t.Fatalf("put v%d: %v", w.version, err)
		}
		if w.version < aborted {
			pubVersion, pubSize = w.version, w.sizeChunks
		} else {
			inflight = append(inflight, desc)
		}
	}
}

// TestMultiRootWalkEquivalence checks the multi-root walks against the
// per-version union they replaced, on seeded random histories with tree
// growth, shared subtrees and an aborted version whose root is a hole:
// the liveness walk over every retained version and the owned walk over a
// pruned prefix must yield identical Nodes, Chunks and Leaves, with no
// key fetched twice.
func TestMultiRootWalkEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		rig := startMetaRig(t, 3, 1+trial%2, 0)
		blob := uint64(900 + trial)
		history := randomRefHistory(rng, 4+rng.Intn(20))
		aborted := uint64(2 + rng.Intn(len(history)-2))
		weaveWithAbort(t, rig.client, blob, history, aborted)

		trees := make([]meta.Tree, len(history))
		for i, w := range history {
			trees[i] = meta.Tree{Version: w.version, SizeChunks: w.sizeChunks}
		}
		floor := rng.Intn(len(trees))
		for _, tc := range []struct {
			name  string
			trees []meta.Tree
			owned bool
		}{
			{"liveness", trees[floor:], false},
			{"owned", trees[:floor+1], true},
		} {
			want, err := referenceLive(rig.client, blob, tc.trees, tc.owned)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecordingStore(newReaderClient(t, rig, 1, 0))
			got := meta.NewLiveSet().TrackLeaves()
			if tc.owned {
				err = got.AddOwned(rec, blob, tc.trees)
			} else {
				err = meta.CollectLiveInto(got, rec, blob, tc.trees)
			}
			if err != nil {
				t.Fatalf("trial %d %s walk: %v", trial, tc.name, err)
			}
			assertLiveEqual(t, tc.name, got, want)
			rec.assertFetchedOnce(t, tc.name)
			if len(rec.single) == 0 && tc.trees[0].Version <= aborted && !tc.owned {
				t.Errorf("trial %d: liveness walk over aborted v%d met no hole", trial, aborted)
			}
			if t.Failed() {
				t.Fatalf("trial %d (aborted v%d, floor index %d): %s walk diverged", trial, aborted, floor, tc.name)
			}
		}
	}
}

// TestMultiRootWalkRoundBound checks that a walk's round count tracks the
// tree depth, not the number of roots: 256 one-chunk overwrites of a
// 64-chunk tree walked as 256 roots take at most one GetNodes call per
// level.
func TestMultiRootWalkRoundBound(t *testing.T) {
	const size, versions = 64, 256
	store := meta.NewMemStore()
	history := []refWrite{{version: 1, start: 0, end: size, sizeChunks: size}}
	for v := uint64(2); v <= versions; v++ {
		i := (v * 37) % size
		history = append(history, refWrite{version: v, start: i, end: i + 1, sizeChunks: size})
	}
	const blob = 31
	weaveRefHistory(t, store, blob, history)
	trees := make([]meta.Tree, len(history))
	for i, w := range history {
		trees[i] = meta.Tree{Version: w.version, SizeChunks: size}
	}
	rec := newRecordingStore(store)
	live := meta.NewLiveSet()
	if err := meta.CollectLiveInto(live, rec, blob, trees); err != nil {
		t.Fatal(err)
	}
	if depth := treeDepth(size); rec.getNodes > depth {
		t.Errorf("walk of %d roots took %d GetNodes rounds, depth %d", len(trees), rec.getNodes, depth)
	}
	rec.assertFetchedOnce(t, "liveness")
	owned := newRecordingStore(store)
	if err := meta.NewLiveSet().AddOwned(owned, blob, trees[1:]); err != nil {
		t.Fatal(err)
	}
	if depth := treeDepth(size); owned.getNodes > depth {
		t.Errorf("owned walk of %d roots took %d GetNodes rounds, depth %d", len(trees)-1, owned.getNodes, depth)
	}
}
