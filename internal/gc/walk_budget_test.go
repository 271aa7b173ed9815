package gc_test

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/meta"
	"repro/internal/rpc"
)

// countingMeta is a metadata view that counts the batched node fetches
// the sweeper's walks issue and can run a hook before each one.
type countingMeta struct {
	*meta.Client
	getNodes atomic.Int64
	before   func(call int64)
}

func (m *countingMeta) GetNodes(keys []meta.NodeKey) ([]*meta.Node, error) {
	call := m.getNodes.Add(1)
	if m.before != nil {
		m.before(call)
	}
	return m.Client.GetNodes(keys)
}

const (
	historyChunk  = 64
	historyChunks = 16 // a 5-level tree
)

// overwriteHistory starts a cluster and writes one full version of a
// 16-chunk blob followed by versions-1 one-chunk overwrites, then sets
// keep-last-retain retention. It returns the cluster, the blob and the
// final version's content.
func overwriteHistory(t testing.TB, versions int, retain uint64) (*cluster.Cluster, *core.Blob, []byte) {
	t.Helper()
	c, err := cluster.Start(cluster.Config{DataProviders: 2, MetaProviders: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(historyChunk, 1)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte{1}, historyChunk*historyChunks)
	if _, err := blob.Write(content, 0); err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= versions; v++ {
		i := (v * 7) % historyChunks
		p := bytes.Repeat([]byte{byte(v)}, historyChunk)
		if _, err := blob.Write(p, uint64(i*historyChunk)); err != nil {
			t.Fatalf("write v%d: %v", v, err)
		}
		copy(content[i*historyChunk:], p)
	}
	if err := blob.SetRetention(retain); err != nil {
		t.Fatal(err)
	}
	return c, blob, content
}

// newCountingSweeper builds a sweeper whose metadata view counts its
// batched fetches.
func newCountingSweeper(t testing.TB, c *cluster.Cluster) (*gc.Sweeper, *countingMeta) {
	t.Helper()
	rc := rpc.NewClientFrom(c.Network, 0, "sweep-probe")
	t.Cleanup(rc.Close)
	m := &countingMeta{Client: meta.NewClient(rc, c.MetaAddrs(), 1, 0)}
	s, err := gc.New(gc.Config{RPC: rc, Meta: m, VMAddr: c.VMAddr(), Providers: c.ProviderAddrs})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

func readLatest(t *testing.T, blob *core.Blob, version uint64, want []byte) {
	t.Helper()
	buf := make([]byte, len(want))
	if _, err := blob.Read(version, buf, 0); err != nil && err != io.EOF {
		t.Fatalf("read retained v%d: %v", version, err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("retained v%d corrupted by the sweep", version)
	}
}

// TestSweepGetNodesBudget pins the sweep's metadata cost: with 256
// retained and 64 pruned versions, the liveness, candidate and owned walks
// each batch the frontier of all their roots, so the sweep issues at most
// one GetNodes call per tree level per walk — independent of the version
// count.
func TestSweepGetNodesBudget(t *testing.T) {
	const versions, retain = 320, 256
	c, blob, content := overwriteHistory(t, versions, retain)
	s, m := newCountingSweeper(t, c)
	preNodes := metaNodeTotal(c)

	st, err := s.SweepBlob(blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes == 0 || st.Chunks == 0 {
		t.Fatalf("sweep reclaimed nothing: %v", st)
	}
	const depth = 5
	if got := m.getNodes.Load(); got > 3*depth {
		t.Errorf("sweep of %d retained + %d pruned versions issued %d GetNodes calls, budget %d",
			retain, versions-retain, got, 3*depth)
	}
	t.Logf("sweep: %d GetNodes calls, reclaimed %v (%d -> %d metadata nodes)",
		m.getNodes.Load(), st, preNodes, metaNodeTotal(c))
	readLatest(t, blob, versions, content)
}

// TestSweepAbortsOnUnreachableMetaMidWalk downs a metadata provider
// (replication 1, so its nodes become unreachable, not absent) in the
// middle of each of the sweep's walks: the sweep must fail without
// deleting anything or advancing its frontier, and a sweep after the
// provider returns must reclaim everything.
func TestSweepAbortsOnUnreachableMetaMidWalk(t *testing.T) {
	// Calls 1-5 are the liveness walk, 6-10 the candidate walk of the old
	// floor, 11-15 the owned walk of the pruned versions.
	for _, downAt := range []int64{2, 7, 12} {
		c, blob, content := overwriteHistory(t, 40, 8)
		s, m := newCountingSweeper(t, c)
		down := c.MetaAddrs()[1]
		m.before = func(call int64) {
			if call == downAt {
				c.Fabric.SetDown(down, true)
			}
		}
		preNodes := metaNodeTotal(c)
		preChunks, preBytes := providerTotals(t, c)

		if _, err := s.SweepBlob(blob.ID()); err == nil {
			t.Fatalf("down at call %d: sweep over an unreachable metadata provider succeeded", downAt)
		}
		if m.getNodes.Load() < downAt {
			t.Fatalf("down at call %d: the sweep made only %d calls", downAt, m.getNodes.Load())
		}
		if n := metaNodeTotal(c); n != preNodes {
			t.Errorf("down at call %d: failed sweep deleted metadata: %d -> %d nodes", downAt, preNodes, n)
		}
		if chunks, bytes := providerTotals(t, c); chunks != preChunks || bytes != preBytes {
			t.Errorf("down at call %d: failed sweep deleted chunks: %d/%d -> %d/%d",
				downAt, preChunks, preBytes, chunks, bytes)
		}

		c.Fabric.SetDown(down, false)
		m.before = nil
		st, err := s.SweepBlob(blob.ID())
		if err != nil {
			t.Fatalf("down at call %d: sweep after recovery: %v", downAt, err)
		}
		if st.Nodes == 0 || st.Chunks == 0 {
			t.Errorf("down at call %d: sweep after recovery reclaimed nothing (frontier moved?): %v", downAt, st)
		}
		readLatest(t, blob, 40, content)
	}
}

// BenchmarkGCSweep times one steady-state sweep of a blob with N retained
// versions under keep-last-N retention: each iteration writes one more
// 1-chunk overwrite (untimed), which prunes the oldest retained version,
// then sweeps it — the liveness walk over all N retained trees, the old
// floor's candidate walk and the pruned version's owned walk. getnodes/op
// counts the sweeper's batched node fetches.
func BenchmarkGCSweep(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("retained=%d", n), func(b *testing.B) {
			c, blob, _ := overwriteHistory(b, n, uint64(n))
			s, m := newCountingSweeper(b, c)
			if _, err := s.SweepBlob(blob.ID()); err != nil {
				b.Fatal(err)
			}
			p := bytes.Repeat([]byte{0xee}, historyChunk)
			m.getNodes.Store(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := blob.Write(p, uint64(i%historyChunks)*historyChunk); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				st, err := s.SweepBlob(blob.ID())
				if err != nil {
					b.Fatal(err)
				}
				if st.Nodes == 0 {
					b.Fatalf("sweep %d reclaimed nothing", i)
				}
			}
			b.ReportMetric(float64(m.getNodes.Load())/float64(b.N), "getnodes/op")
		})
	}
}
