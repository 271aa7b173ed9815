package meta_test

import (
	"testing"

	"repro/internal/chunk"
	"repro/internal/meta"
)

// The weave algorithm must behave identically when its Store is the real
// DHT client (batched, replicated, RPC-backed) instead of the in-memory
// test store: weave a multi-writer history through the wire and verify
// every version.
func TestWeaveThroughDHTClient(t *testing.T) {
	rig := startMetaRig(t, 3, 2, 512)
	store := rig.client

	type w struct {
		version    uint64
		start, end uint64
		size       uint64
	}
	history := []w{
		{1, 0, 4, 4},
		{2, 2, 6, 6},
		{3, 6, 9, 9},
		{4, 0, 1, 9},
	}
	var descs []meta.WriteDesc
	for _, h := range history {
		descs = append(descs, meta.WriteDesc{
			Version: h.version, StartChunk: h.start, EndChunk: h.end, SizeChunks: h.size,
		})
	}
	const blob = 77
	for i, h := range history {
		leaves := make([]meta.ChunkRef, h.end-h.start)
		for j := range leaves {
			leaves[j] = meta.ChunkRef{
				Providers: []string{"dp"},
				Key:       chunk.Key{Blob: blob, Version: h.version, Index: h.start + uint64(j)},
				Length:    10,
			}
		}
		nodes, root, err := meta.Weave(store, meta.WeaveInput{
			Blob: blob, Version: h.version,
			StartChunk: h.start, EndChunk: h.end, SizeChunks: h.size,
			Leaves:   leaves,
			InFlight: descs[:i], // everything unpublished
		})
		if err != nil {
			t.Fatalf("weave v%d: %v", h.version, err)
		}
		if err := store.PutNodes(nodes); err != nil {
			t.Fatalf("put v%d: %v", h.version, err)
		}
		if root.Size != meta.NextPow2(h.size) {
			t.Fatalf("root span %d for size %d", root.Size, h.size)
		}
	}

	// Verify ownership per chunk per version against the obvious model.
	owner := func(v, i uint64) uint64 {
		var o uint64
		for _, h := range history {
			if h.version > v {
				break
			}
			if i >= h.start && i < h.end {
				o = h.version
			}
		}
		return o
	}
	for _, h := range history {
		refs, err := meta.CollectLeaves(store, blob, h.version, h.size, 0, h.size)
		if err != nil {
			t.Fatalf("collect v%d: %v", h.version, err)
		}
		for i := uint64(0); i < h.size; i++ {
			want := owner(h.version, i)
			if want == 0 {
				if !refs[i].IsZero() {
					t.Fatalf("v%d chunk %d: want zero, got %v", h.version, i, refs[i].Key)
				}
				continue
			}
			if refs[i].Key.Version != want {
				t.Fatalf("v%d chunk %d: owner %d, want %d", h.version, i, refs[i].Key.Version, want)
			}
		}
	}

}

// TestWeaveGetBudget pins the weave's published-tree descent cost over
// the DHT client (cache off, so every fetch is an RPC): each boundary path
// of the written range is fetched once per weave, so a 1-chunk overwrite
// of a 4096-chunk tree costs at most depth singleton meta.get calls, and a
// range write at most 2 × depth.
func TestWeaveGetBudget(t *testing.T) {
	const size = 4096
	depth := int64(treeDepth(size))
	rig := startMetaRig(t, 2, 1, 0)
	const blob = 78
	weaveRefHistory(t, rig.client, blob, []refWrite{{version: 1, start: 0, end: size, sizeChunks: size}})

	for _, tc := range []struct {
		name       string
		start, end uint64
		bound      int64
	}{
		{"one-chunk", 1234, 1235, depth},
		{"range", 777, 3001, 2 * depth},
	} {
		t.Run(tc.name, func(t *testing.T) {
			writer := newReaderClient(t, rig, 1, 0)
			nodes, _, err := meta.Weave(writer, meta.WeaveInput{
				Blob: blob, Version: 2,
				StartChunk: tc.start, EndChunk: tc.end, SizeChunks: size,
				Leaves:     make([]meta.ChunkRef, tc.end-tc.start),
				PubVersion: 1, PubSizeChunks: size,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(nodes) == 0 {
				t.Fatal("weave emitted no nodes")
			}
			st := writer.RPCStats()
			if st.GetRPCs > tc.bound {
				t.Errorf("weave of [%d,%d) issued %d meta.get RPCs, budget %d", tc.start, tc.end, st.GetRPCs, tc.bound)
			}
			t.Logf("weave of [%d,%d): %d meta.get RPCs (budget %d)", tc.start, tc.end, st.GetRPCs, tc.bound)
		})
	}
}

// BenchmarkWeave weaves 1-chunk overwrites into a 13-level (4096-chunk)
// tree through the DHT client over the simulated rpc fabric, metadata
// cache off: the weave step of a small durable write. gets/op is the
// published-tree meta.get calls per weave.
func BenchmarkWeave(b *testing.B) {
	const size = 4096
	rig := startMetaRig(b, 2, 1, 0)
	const blob = 79
	weaveRefHistory(b, rig.client, blob, []refWrite{{version: 1, start: 0, end: size, sizeChunks: size}})
	writer := newReaderClient(b, rig, 1, 0)
	leaves := make([]meta.ChunkRef, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := uint64(i*37) % size
		if _, _, err := meta.Weave(writer, meta.WeaveInput{
			Blob: blob, Version: uint64(2 + i),
			StartChunk: start, EndChunk: start + 1, SizeChunks: size,
			Leaves:     leaves,
			PubVersion: 1, PubSizeChunks: size,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(writer.RPCStats().GetRPCs)/float64(b.N), "gets/op")
}
