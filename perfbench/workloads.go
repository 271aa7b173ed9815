package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// heartbeatTimeout outlives any run. In the TCP harness each provider
// heartbeats its configured listen address "127.0.0.1:0" rather than the
// bound one, so the provider manager registers a phantom provider under
// that address and never hears from the real ones. With the default 1s
// timeout every real provider would age out and all writes fail; with
// this one the phantom stays in the placement set beside them, and the
// chunk placements it draws fail and are retried. The benchmark keeps
// that defect visible (core.chunk_put_ops_per_chunk > 1, rpc errors,
// pmanager.live_providers = 5) rather than working around it.
const heartbeatTimeout = time.Hour

// opFunc runs one operation of one load client and reports its kind and
// the user bytes it moved. A failed output check returns errMismatch.
type opFunc func() (opKind, int, error)

// workload is one input set: how to deploy and preload the cluster and
// how each load client builds its ops.
type workload struct {
	name string
	// durable deployments journal under a data directory, without
	// fsync, and run the background GC loop every second.
	durable bool
	// metaCacheNodes sizes each load client's metadata cache (0: off).
	metaCacheNodes int
	// prepare preloads the deployment and fills d.ops and d.verify.
	prepare func(d *deployment, seed uint64) error
}

var workloads = map[string]*workload{
	// bulk-read: the data plane does nearly all the work — provider.get,
	// chunk range reads, CRC-32C verified on both ends, rpc frame copies
	// and wire. Metadata is cached and nothing is durable.
	"bulk-read": {name: "bulk-read", metaCacheNodes: 1 << 16, prepare: prepareBulkRead},
	// small-ops: the version manager and the metadata layer dominate each
	// op — vm.latest, vm.assign/vm.commit ordering, weave and meta.put,
	// and a cold batched descent over meta.getnodes — while the data
	// plane moves 4 KiB. Reads run beside writes on the same tree, so a
	// metadata change that speeds descent but slows weave shows. It is
	// run by hand, not from BENCHMARK.json: durable-small-ops covers its
	// layers, and a third workload would shorten every timed window.
	"small-ops": {name: "small-ops", prepare: func(d *deployment, seed uint64) error {
		return prepareSmallOps(d, seed, 0)
	}},
	// durable-small-ops: small-ops on a durable deployment whose old
	// versions are pruned and swept while the load runs. The difference
	// from small-ops is what the durable logs (version-manager journal,
	// metadata WAL, provider sidecar) and the GC cost the same ops.
	"durable-small-ops": {name: "durable-small-ops", durable: true, prepare: func(d *deployment, seed uint64) error {
		return prepareSmallOps(d, seed, durableKeepLast)
	}},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// deployment is one running cluster with its load clients.
type deployment struct {
	c       *cluster.Cluster
	dataDir string
	load    []*core.Client // load[i] belongs to load goroutine i alone
	stats   *core.Client   // samples deployment-wide counters
	ops     []opFunc
	verify  func() error
	// chunkSize is the chunk size of the blobs the ops write.
	chunkSize uint64
	// written counts the user bytes written to the deployment since it
	// started, preload included.
	written atomic.Int64
}

// deploy starts a TCP loopback cluster for w and preloads it from seed.
func deploy(w *workload, seed uint64, workDir string) (*deployment, error) {
	cfg := cluster.Config{
		UseTCP:           true,
		DataProviders:    4,
		MetaProviders:    2,
		MetaReplication:  1,
		HeartbeatTimeout: heartbeatTimeout,
	}
	d := &deployment{}
	if w.durable {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return nil, fmt.Errorf("creating work dir: %w", err)
		}
		dir, err := os.MkdirTemp(workDir, w.name+"-")
		if err != nil {
			return nil, fmt.Errorf("creating data dir: %w", err)
		}
		d.dataDir = dir
		cfg.DataDir = dir
		cfg.GCInterval = time.Second
		// Appends reach the page cache, not the disk: the data directory
		// lies in the checkout, on a disk shared with other tenants, whose
		// fsync latency moved the throughput of the same durable writes
		// by a quarter between runs.
		cfg.NoFsyncWAL = true
	}
	c, err := cluster.Start(cfg)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("starting cluster: %w", err)
	}
	d.c = c
	for i := 0; i < loadClients; i++ {
		cli, err := c.NewClient(cluster.ClientOptions{MetaCacheNodes: w.metaCacheNodes})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("load client %d: %w", i, err)
		}
		d.load = append(d.load, cli)
	}
	if d.stats, err = c.NewClient(cluster.ClientOptions{}); err != nil {
		d.close()
		return nil, fmt.Errorf("stats client: %w", err)
	}
	d.ops = make([]opFunc, loadClients)
	d.verify = func() error { return nil }
	if err := w.prepare(d, seed); err != nil {
		d.close()
		return nil, fmt.Errorf("preparing %s: %w", w.name, err)
	}
	return d, nil
}

func (d *deployment) close() {
	if d.c != nil {
		d.c.Close()
	}
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

// preload writes data to the start of b in chunk-aligned pieces and waits
// until the last version is published. Pieces keep the set-up's memory
// peak below the load's, so peak_rss_mb measures the load.
func preload(b *core.Blob, data []byte, piece int) error {
	var v uint64
	for off := 0; off < len(data); off += piece {
		var err error
		if v, err = b.Write(data[off:off+piece], uint64(off)); err != nil {
			return fmt.Errorf("preloading offset %d: %w", off, err)
		}
	}
	return b.WaitPublished(v)
}

// rng returns the generator of one input stream of a seed.
func rng(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// fillRandom fills p from one stream of seed.
func fillRandom(p []byte, seed, stream uint64) {
	r := rng(seed, stream)
	var w [8]byte
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(w[:], r.Uint64())
		copy(p[i:], w[:])
	}
}

// Input streams: each load client i draws from stream streamClient+i.
const (
	streamContent = 1
	streamClient  = 100
)

const (
	bulkBlobBytes  = 64 << 20
	bulkChunkBytes = 64 << 10
	bulkReadBytes  = 4 << 20
)

// prepareBulkRead writes one 64 MiB blob of 64 KiB chunks in 4 MiB
// pieces, warms each load client's metadata cache by reading it whole,
// and makes every op read a random chunk-aligned 4 MiB window of the
// latest version, compared against the precomputed bytes.
func prepareBulkRead(d *deployment, seed uint64) error {
	want := make([]byte, bulkBlobBytes)
	fillRandom(want, seed, streamContent)
	b, err := d.load[0].CreateBlob(bulkChunkBytes, 1)
	if err != nil {
		return err
	}
	if err := preload(b, want, bulkReadBytes); err != nil {
		return err
	}
	d.written.Add(bulkBlobBytes)
	d.chunkSize = bulkChunkBytes
	for i, cli := range d.load {
		blob, err := cli.OpenBlob(b.ID())
		if err != nil {
			return err
		}
		buf := make([]byte, bulkReadBytes)
		for off := 0; off < bulkBlobBytes; off += bulkReadBytes {
			if _, err := blob.Read(0, buf, uint64(off)); err != nil {
				return fmt.Errorf("warming client %d: %w", i, err)
			}
			if !bytes.Equal(buf, want[off:off+bulkReadBytes]) {
				return fmt.Errorf("warming client %d: %w at offset %d", i, errMismatch, off)
			}
		}
		r := rng(seed, streamClient+uint64(i))
		windows := (bulkBlobBytes-bulkReadBytes)/bulkChunkBytes + 1
		d.ops[i] = func() (opKind, int, error) {
			off := r.IntN(windows) * bulkChunkBytes
			n, err := blob.Read(0, buf, uint64(off))
			if err != nil {
				return opRead, 0, err
			}
			if n != len(buf) || !bytes.Equal(buf, want[off:off+bulkReadBytes]) {
				return opRead, 0, fmt.Errorf("%w: read at offset %d", errMismatch, off)
			}
			return opRead, n, nil
		}
	}
	return nil
}

const (
	smallBlobBytes    = 16 << 20
	smallChunkBytes   = 4 << 10
	smallPreloadBytes = 1 << 20
	// smallReadShare is the chance that an op is a read. A read-mostly
	// mix keeps the median op inside the read mode: reads and writes
	// differ about fivefold, and an even mix would put the median in the
	// gap between them, where it jumps with the draw.
	smallReadShare = 0.7
	// smallHeaderBytes opens each chunk: seed, blob offset, writer and
	// sequence number. The rest is generated from the header.
	smallHeaderBytes = 24
	// durableKeepLast is the retention of the durable-small-ops blob:
	// about three seconds of writes, so the GC sweeps versions while the
	// load runs but never one a read of the latest version still walks.
	durableKeepLast = 1024
)

// prepareSmallOps writes one 16 MiB blob of 4 KiB self-describing chunks
// (a 13-level tree) in 1 MiB pieces, keeping the last keepLast
// versions when keepLast > 0. Each op flips a seeded coin: a 4 KiB read
// of a random chunk of the latest version, validated against its own
// header, or a 4 KiB chunk-aligned overwrite of a random chunk. Load
// clients run with the metadata cache off. After the window, verify
// reads the latest version whole and validates every chunk.
func prepareSmallOps(d *deployment, seed, keepLast uint64) error {
	const chunks = smallBlobBytes / smallChunkBytes
	initial := make([]byte, smallBlobBytes)
	for c := 0; c < chunks; c++ {
		off := uint64(c) * smallChunkBytes
		makeChunk(initial[off:off+smallChunkBytes], seed, off, 0)
	}
	b, err := d.load[0].CreateBlob(smallChunkBytes, 1)
	if err != nil {
		return err
	}
	if keepLast > 0 {
		if err := b.SetRetention(keepLast); err != nil {
			return err
		}
	}
	if err := preload(b, initial, smallPreloadBytes); err != nil {
		return err
	}
	d.written.Add(smallBlobBytes)
	d.chunkSize = smallChunkBytes
	for i, cli := range d.load {
		blob, err := cli.OpenBlob(b.ID())
		if err != nil {
			return err
		}
		r := rng(seed, streamClient+uint64(i))
		rbuf := make([]byte, smallChunkBytes)
		wbuf := make([]byte, smallChunkBytes)
		tag := uint64(i+1) << 48
		var seq uint64
		d.ops[i] = func() (opKind, int, error) {
			off := uint64(r.IntN(chunks)) * smallChunkBytes
			if r.Float64() < smallReadShare {
				n, err := blob.Read(0, rbuf, off)
				if err != nil {
					return opRead, 0, err
				}
				if n != smallChunkBytes || !checkChunk(rbuf, seed, off) {
					return opRead, 0, fmt.Errorf("%w: chunk at offset %d", errMismatch, off)
				}
				return opRead, n, nil
			}
			seq++
			makeChunk(wbuf, seed, off, tag|seq)
			if _, err := blob.Write(wbuf, off); err != nil {
				return opWrite, 0, err
			}
			d.written.Add(smallChunkBytes)
			return opWrite, smallChunkBytes, nil
		}
	}
	d.verify = func() error {
		if _, err := b.Read(0, initial, 0); err != nil {
			return fmt.Errorf("reading back the latest version: %w", err)
		}
		for c := 0; c < chunks; c++ {
			off := uint64(c) * smallChunkBytes
			if !checkChunk(initial[off:off+smallChunkBytes], seed, off) {
				return fmt.Errorf("%w: latest version, chunk at offset %d", errMismatch, off)
			}
		}
		return nil
	}
	return nil
}

// makeChunk writes a self-describing chunk: the header names the seed,
// the chunk's blob offset and the write (writer and sequence number), and
// the body is generated from the header.
func makeChunk(p []byte, seed, off, write uint64) {
	binary.LittleEndian.PutUint64(p[0:], seed)
	binary.LittleEndian.PutUint64(p[8:], off)
	binary.LittleEndian.PutUint64(p[16:], write)
	fillBody(p[smallHeaderBytes:], seed^off*0x9E3779B97F4A7C15^write)
}

// checkChunk reports whether p is a whole chunk makeChunk wrote for seed
// at offset off.
func checkChunk(p []byte, seed, off uint64) bool {
	if binary.LittleEndian.Uint64(p[0:]) != seed || binary.LittleEndian.Uint64(p[8:]) != off {
		return false
	}
	write := binary.LittleEndian.Uint64(p[16:])
	var want [smallChunkBytes - smallHeaderBytes]byte
	fillBody(want[:], seed^off*0x9E3779B97F4A7C15^write)
	return bytes.Equal(p[smallHeaderBytes:], want[:])
}

// fillBody fills p with an xorshift stream of x.
func fillBody(p []byte, x uint64) {
	x |= 1
	for i := 0; i+8 <= len(p); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(p[i:], x)
	}
}
