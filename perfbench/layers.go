package main

import (
	"io/fs"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/meta"
	"repro/internal/provider"
)

// counters is one sample of the program's public stats accessors, taken
// before and after a timed window.
type counters struct {
	io      core.IOStats       // Client.IOStats, summed over load clients
	meta    meta.RPCStats      // Client.MetaRPCStats, summed over load clients
	prov    provider.StatsResp // Server.StatsSnapshot, summed over providers
	vmLog   durable.LogStats   // version-manager journal
	metaLog durable.LogStats   // metadata node logs, summed
	gc      core.GCStats
	alloc   uint64 // runtime TotalAlloc
	numGC   uint32
}

func sample(d *deployment) (*counters, error) {
	s := &counters{}
	for _, cli := range d.load {
		io, m := cli.IOStats(), cli.MetaRPCStats()
		s.io.ChunkGetRPCs += io.ChunkGetRPCs
		s.io.ChunkPutOps += io.ChunkPutOps
		s.io.ChunkPutRPCs += io.ChunkPutRPCs
		s.io.ChunkBytesIn += io.ChunkBytesIn
		s.io.ChunkBytesOut += io.ChunkBytesOut
		s.meta.GetRPCs += m.GetRPCs
		s.meta.GetNodesRPCs += m.GetNodesRPCs
		s.meta.PutRPCs += m.PutRPCs
		s.meta.NodesFetched += m.NodesFetched
		s.meta.NodesStored += m.NodesStored
		s.meta.SpecHits += m.SpecHits
		s.meta.SpecMisses += m.SpecMisses
		s.meta.CacheHits += m.CacheHits
		s.meta.CacheMisses += m.CacheMisses
	}
	for _, p := range d.c.Providers {
		st := p.StatsSnapshot()
		s.prov.Puts += st.Puts
		s.prov.Gets += st.Gets
		s.prov.PutBatches += st.PutBatches
		s.prov.BytesOut += st.BytesOut
		s.prov.Verified += st.Verified
	}
	s.vmLog = d.c.VM.Manager().JournalStats()
	for _, ms := range d.c.MetaServers {
		if ps, ok := ms.Store().(*meta.PersistentStore); ok {
			st := ps.LogStats()
			s.metaLog.Appends += st.Appends
			s.metaLog.Writes += st.Writes
		}
	}
	gc, err := d.stats.GCStats()
	if err != nil {
		return nil, err
	}
	s.gc = *gc
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc, s.numGC = ms.TotalAlloc, ms.NumGC
	return s, nil
}

type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric with its unit. The rpc method
// metrics cover every method a load client issues on some workload; a
// method a workload never issues reads 0 there.
var perLayer = func() []layerMetric {
	l := []layerMetric{
		{"core.chunk_put_ops_per_chunk", "ratio"},
		{"core.chunk_put_rpcs_per_write", "1/op"},
		{"core.chunk_get_rpcs_per_read", "1/op"},
		{"core.bytes_in_per_read_byte", "ratio"},
		{"core.self_ms_per_op", "ms"},
		{"core.read_p50_ms", "ms"},
		{"core.read_p99_ms", "ms"},
		{"core.write_p50_ms", "ms"},
		{"core.write_p99_ms", "ms"},
		{"meta.getnodes_rpcs_per_read", "1/op"},
		{"meta.nodes_fetched_per_read", "1/op"},
		{"meta.get_rpcs_per_write", "1/op"},
		{"meta.put_rpcs_per_write", "1/op"},
		{"meta.nodes_stored_per_write", "1/op"},
		{"meta.spec_hit_ratio", "ratio"},
		{"meta.cache_hit_ratio", "ratio"},
		{"provider.puts_per_putbatch", "ratio"},
		{"provider.bytes_out_per_read_byte", "ratio"},
		{"provider.verified_per_chunk_served", "ratio"},
		{"pmanager.live_providers", "count"},
		{"durable.vm_appends_per_write", "1/op"},
		{"durable.vm_appends_per_wal_write", "ratio"},
		{"durable.meta_appends_per_write", "1/op"},
		{"durable.meta_appends_per_wal_write", "ratio"},
		{"durable.disk_bytes_per_user_byte", "ratio"},
		{"gc.reclaimed_per_written_byte", "ratio"},
		{"gc.pending_blobs", "count"},
		{"runtime.alloc_bytes_per_user_byte", "ratio"},
		{"runtime.gc_cycles_per_s", "1/s"},
		{"rpc.transport_ms_per_op", "ms"},
		{"rpc.errors_per_op", "1/op"},
		{"rpc.redials_per_op", "1/op"},
		{"tracing.throughput_ratio", "ratio"},
	}
	for _, m := range tracedMethods {
		l = append(l, layerMetric{m + ".calls_per_op", "1/op"}, layerMetric{m + ".client_ms", "ms"},
			layerMetric{m + ".server_ms", "ms"})
	}
	return l
}()

// layerMetrics derives the counter-based per-layer metrics of one window.
// Per-read and per-write ratios divide by that window's ops of the kind;
// a ratio whose base is 0 reads 0.
func layerMetrics(d *deployment, b, a *counters, ws *windowStats) map[string]metric {
	reads, writes := float64(len(ws.latencies(opRead))), float64(len(ws.latencies(opWrite)))
	readBytes, writeBytes := float64(ws.bytes(opRead)), float64(ws.bytes(opWrite))
	chunkSize := float64(d.chunkSize)
	m := map[string]metric{}
	put := func(name string, num, den float64) {
		v := 0.0
		if den != 0 {
			v = num / den
		}
		m[name] = metric{v, unitOf(name)}
	}
	put("core.chunk_put_ops_per_chunk", float64(a.io.ChunkPutOps-b.io.ChunkPutOps), writeBytes/chunkSize)
	put("core.chunk_put_rpcs_per_write", float64(a.io.ChunkPutRPCs-b.io.ChunkPutRPCs), writes)
	put("core.chunk_get_rpcs_per_read", float64(a.io.ChunkGetRPCs-b.io.ChunkGetRPCs), reads)
	put("core.bytes_in_per_read_byte", float64(a.io.ChunkBytesIn-b.io.ChunkBytesIn), readBytes)
	put("meta.getnodes_rpcs_per_read", float64(a.meta.GetNodesRPCs-b.meta.GetNodesRPCs), reads)
	put("meta.nodes_fetched_per_read", float64(a.meta.NodesFetched-b.meta.NodesFetched), reads)
	put("meta.get_rpcs_per_write", float64(a.meta.GetRPCs-b.meta.GetRPCs), writes)
	put("meta.put_rpcs_per_write", float64(a.meta.PutRPCs-b.meta.PutRPCs), writes)
	put("meta.nodes_stored_per_write", float64(a.meta.NodesStored-b.meta.NodesStored), writes)
	spec := float64(a.meta.SpecHits - b.meta.SpecHits)
	put("meta.spec_hit_ratio", spec, spec+float64(a.meta.SpecMisses-b.meta.SpecMisses))
	hits := float64(a.meta.CacheHits - b.meta.CacheHits)
	put("meta.cache_hit_ratio", hits, hits+float64(a.meta.CacheMisses-b.meta.CacheMisses))
	put("provider.puts_per_putbatch", float64(a.prov.Puts-b.prov.Puts), float64(a.prov.PutBatches-b.prov.PutBatches))
	put("provider.bytes_out_per_read_byte", float64(a.prov.BytesOut-b.prov.BytesOut), readBytes)
	put("provider.verified_per_chunk_served", float64(a.prov.Verified-b.prov.Verified), float64(a.prov.Gets-b.prov.Gets))
	put("pmanager.live_providers", float64(len(d.c.PM.Manager().Providers())), 1)
	vmAppends := float64(a.vmLog.Appends - b.vmLog.Appends)
	put("durable.vm_appends_per_write", vmAppends, writes)
	put("durable.vm_appends_per_wal_write", vmAppends, float64(a.vmLog.Writes-b.vmLog.Writes))
	metaAppends := float64(a.metaLog.Appends - b.metaLog.Appends)
	put("durable.meta_appends_per_write", metaAppends, writes)
	put("durable.meta_appends_per_wal_write", metaAppends, float64(a.metaLog.Writes-b.metaLog.Writes))
	put("durable.disk_bytes_per_user_byte", float64(dirBytes(d.dataDir)), float64(d.written.Load()))
	put("gc.reclaimed_per_written_byte", float64(a.gc.Bytes-b.gc.Bytes), writeBytes)
	put("gc.pending_blobs", float64(a.gc.PendingBlobs), 1)
	put("runtime.alloc_bytes_per_user_byte", float64(a.alloc-b.alloc), readBytes+writeBytes)
	put("runtime.gc_cycles_per_s", float64(a.numGC-b.numGC), ws.elapsed.Seconds())
	return m
}

// dirBytes is the size of the regular files under dir (0 for "").
func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func unitOf(name string) string {
	for _, l := range perLayer {
		if l.name == name {
			return l.unit
		}
	}
	return "ratio"
}
