// Package repair implements BlobSeer's self-healing control loop: the
// background engine that keeps the data plane at its declared replication
// degree under provider churn and keeps the provider pool balanced as GC
// frees space unevenly.
//
// The write path replicates each chunk R ways at upload time, but nothing
// in the seed system ever repaired that degree: a dead provider's
// replicas stayed lost, every read kept probing the dead address first,
// and the blob was one more failure away from data loss. The repair
// engine closes that loop with a scan → re-replicate → patch → rebalance
// pass:
//
//  1. Scan. For every blob, walk every retained version's segment tree
//     with the same batched level-order walker the GC liveness analysis
//     uses (LiveSet.TrackLeaves piggybacks on it), producing the chunk →
//     replica-set placement map and, per chunk, the exact leaf
//     descriptors that reference it.
//  2. Detect. A replica on a provider that stopped heartbeating (or that
//     GloBeM says to avoid) is dead; a chunk short of its blob's
//     replication degree is under-replicated.
//  3. Re-replicate. Surviving replicas are drained with the batched
//     provider.getchunks RPC and pushed onto fresh providers — chosen by
//     the capacity-aware allocator, excluding every provider the chunk
//     already touched — with batched provider.putchunks (never singleton
//     puts).
//  4. Patch. The affected leaves are rewritten in place through the
//     meta.patchreplicas RPC (journaled by PersistentStore), surviving
//     replicas first, so reads stop probing dead addresses.
//  5. Rebalance. Providers above the fullness high watermark are drained
//     toward the low watermark by migrating chunk replicas onto the
//     emptiest providers (copy → patch → delete; the delete only runs
//     when the patch fully landed, so no metadata replica can strand a
//     read on a deleted copy).
//
// The engine is stateless between passes — anything half-done is simply
// re-detected — so any node may run one: the cluster harness, a
// `blobseerd -role repair` daemon, a vmanager-attached loop, or the CLI.
// Pass counters aggregate at the version manager (RepairReport), mirroring
// the GC stats plumbing.
package repair

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/chunk"
	"repro/internal/meta"
	"repro/internal/metrics"
	"repro/internal/pmanager"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// Stats is the counter set a repair pass produces and the engine (and the
// version manager) accumulates. It is exported RPCStats-style: snapshot
// via Engine.Stats, aggregate via `blobseer-cli repair-stats`.
type Stats = vmanager.RepairTotals

// Config wires an Engine to a deployment.
type Config struct {
	// RPC is the connection cache all calls run over.
	RPC *rpc.Client
	// Meta is the metadata DHT view (same ring as the clients').
	Meta *meta.Client
	// VMAddr locates the version manager; PMAddr the provider manager.
	VMAddr string
	PMAddr string
	// VMAddrs lists a replicated version-manager group (supersedes VMAddr
	// when set): the engine follows leadership redirects and re-resolves
	// the leader across failovers, so repair keeps running while the
	// control plane moves.
	VMAddrs []string
	// HighWater is the fullness (bytes/capacity) above which a live
	// provider is drained by the rebalancer (default 0.85). Only providers
	// that declare a capacity in their heartbeats participate.
	HighWater float64
	// LowWater is the fullness a drain aims for (default 0.70).
	LowWater float64
	// MaxMoveBytes bounds the payload the rebalancer migrates per pass
	// (default 1 GiB), so one pass cannot saturate the fabric; the rest
	// moves on later passes.
	MaxMoveBytes uint64
}

// batchBytes bounds one getchunks/putchunks payload and one repair wave's
// in-flight data, mirroring core's putBatchBytes: big enough to amortize
// per-RPC cost, far under the transport frame cap, and a ceiling on the
// engine's memory footprint.
const batchBytes = 32 << 20

// splitByBytes partitions items into consecutive groups whose summed
// size stays within batchBytes; a single oversized item gets a group of
// its own. Shared by every batched transfer the engine issues, so the
// splitting rule lives in exactly one place.
func splitByBytes[T any](items []T, size func(T) uint64) [][]T {
	var groups [][]T
	var cur []T
	var payload uint64
	for _, it := range items {
		sz := size(it)
		if len(cur) > 0 && payload+sz > batchBytes {
			groups = append(groups, cur)
			cur, payload = nil, 0
		}
		cur = append(cur, it)
		payload += sz
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// Engine runs repair passes against one deployment.
type Engine struct {
	cfg Config
	// vm routes version-manager calls to the current group leader.
	vm *vmanager.Caller

	// pending accumulates pass deltas whose RepairReport RPC failed, so
	// they ride the next pass's report instead of vanishing. Losing a
	// report would be more than a stats blemish: the GC's stray-replica
	// memo flush keys off the version manager's cumulative LeavesPatched
	// counter, and a dropped patch delta could shield stale memo entries
	// (and the stray copies they hide) indefinitely.
	repMu   sync.Mutex
	pending Stats

	// Lifetime counters (also reported per pass to the version manager,
	// which aggregates across engines).
	passes          metrics.Counter
	chunksScanned   metrics.Counter
	underReplicated metrics.Counter
	reReplicated    metrics.Counter
	migrated        metrics.Counter
	bytesMoved      metrics.Counter
	leavesPatched   metrics.Counter
	lostChunks      metrics.Counter
	corruptPurged   metrics.Counter
	errCount        metrics.Counter
}

// New validates cfg and builds an Engine.
func New(cfg Config) (*Engine, error) {
	if cfg.RPC == nil || cfg.Meta == nil {
		return nil, fmt.Errorf("repair: RPC client and metadata client are required")
	}
	if (cfg.VMAddr == "" && len(cfg.VMAddrs) == 0) || cfg.PMAddr == "" {
		return nil, fmt.Errorf("repair: version manager and provider manager addresses are required")
	}
	if cfg.HighWater <= 0 || cfg.HighWater > 1 {
		cfg.HighWater = 0.85
	}
	if cfg.LowWater <= 0 || cfg.LowWater >= cfg.HighWater {
		cfg.LowWater = cfg.HighWater * 0.8
	}
	if cfg.MaxMoveBytes == 0 {
		cfg.MaxMoveBytes = 1 << 30
	}
	vmAddrs := cfg.VMAddrs
	if len(vmAddrs) == 0 {
		vmAddrs = []string{cfg.VMAddr}
	}
	return &Engine{cfg: cfg, vm: vmanager.NewCaller(cfg.RPC, vmAddrs)}, nil
}

// Stats snapshots the engine's lifetime counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Passes:          uint64(e.passes.Load()),
		ChunksScanned:   uint64(e.chunksScanned.Load()),
		UnderReplicated: uint64(e.underReplicated.Load()),
		ReReplicated:    uint64(e.reReplicated.Load()),
		Migrated:        uint64(e.migrated.Load()),
		BytesMoved:      uint64(e.bytesMoved.Load()),
		LeavesPatched:   uint64(e.leavesPatched.Load()),
		LostChunks:      uint64(e.lostChunks.Load()),
		CorruptPurged:   uint64(e.corruptPurged.Load()),
		Errors:          uint64(e.errCount.Load()),
	}
}

// chunkPlace is one live chunk's placement record: its (post-repair)
// replica set and every leaf descriptor referencing it.
type chunkPlace struct {
	blob      uint64
	key       chunk.Key
	length    uint64
	providers []string
	leaves    []meta.NodeKey
}

// passState carries one pass's deployment view.
type passState struct {
	report []pmanager.ProviderStatus
	// good marks providers that are live and not avoided: the only
	// addresses reads should probe and placement should target.
	good map[string]bool
	// corrupt maps provider → quarantined chunk keys (from
	// provider.corruptlist): copies that failed digest verification. A
	// corrupt copy counts as lost for degree purposes — never a copy or
	// drain source — and is deleted once the healed descriptor lands.
	corrupt map[string]map[chunk.Key]bool
	// places accumulates every scanned chunk's placement for rebalance.
	places map[chunk.Key]*chunkPlace
	order  []chunk.Key // deterministic iteration for tests and retries
}

// corruptOn reports whether addr's copy of k is quarantined.
func (ps *passState) corruptOn(addr string, k chunk.Key) bool {
	return ps.corrupt[addr][k]
}

// Run executes one full repair pass: scan + re-replicate + patch every
// blob, then rebalance overfull providers. Per-blob errors don't stop the
// pass; the first error is returned at the end, and everything skipped is
// re-detected next pass. The returned Stats is this pass's delta.
func (e *Engine) Run() (Stats, error) {
	var st Stats
	var firstErr error
	fail := func(err error) {
		st.Errors++
		if firstErr == nil {
			firstErr = err
		}
	}

	var report pmanager.ReportResp
	if err := e.cfg.RPC.Call(e.cfg.PMAddr, pmanager.MethodReport, &pmanager.Ack{}, &report); err != nil {
		return st, fmt.Errorf("repair: provider report: %w", err)
	}
	ps := &passState{
		report:  report.Providers,
		good:    make(map[string]bool, len(report.Providers)),
		corrupt: make(map[string]map[chunk.Key]bool),
		places:  make(map[chunk.Key]*chunkPlace),
	}
	for _, p := range report.Providers {
		if p.Live && !p.Avoided {
			ps.good[p.Addr] = true
		}
	}
	if len(ps.good) == 0 {
		return st, fmt.Errorf("repair: no live providers; nothing to repair onto")
	}
	// Collect each live provider's quarantine list so corrupt copies are
	// classified as lost replicas below. A failed list is treated as
	// empty: scrub re-detects, and the provider's own read-path checks
	// still refuse to serve the copy either way.
	for addr := range ps.good {
		keys, err := provider.CorruptList(e.cfg.RPC, addr)
		if err != nil || len(keys) == 0 {
			continue
		}
		set := make(map[chunk.Key]bool, len(keys))
		for _, k := range keys {
			set[k] = true
		}
		ps.corrupt[addr] = set
	}

	var blobs vmanager.ListResp
	if err := e.vm.Call(vmanager.MethodList, &vmanager.Ack{}, &blobs); err != nil {
		return st, fmt.Errorf("repair: listing blobs: %w", err)
	}
	for _, id := range blobs.IDs {
		if err := e.repairBlob(id, ps, &st); err != nil {
			fail(fmt.Errorf("repair: blob %d: %w", id, err))
		}
	}

	if err := e.rebalance(ps, &st); err != nil {
		fail(err)
	}

	e.passes.Add(1)
	e.chunksScanned.Add(int64(st.ChunksScanned))
	e.underReplicated.Add(int64(st.UnderReplicated))
	e.reReplicated.Add(int64(st.ReReplicated))
	e.migrated.Add(int64(st.Migrated))
	e.bytesMoved.Add(int64(st.BytesMoved))
	e.leavesPatched.Add(int64(st.LeavesPatched))
	e.lostChunks.Add(int64(st.LostChunks))
	e.corruptPurged.Add(int64(st.CorruptPurged))
	e.errCount.Add(int64(st.Errors))

	// Aggregate at the version manager, folding in any deltas earlier
	// failed reports left behind; on failure the merged delta is parked
	// for the next pass.
	e.repMu.Lock()
	delta := e.pending
	addTotals(&delta, &st)
	delta.Passes++
	e.pending = Stats{}
	e.repMu.Unlock()
	if err := e.vm.Call(vmanager.MethodRepairReport, &delta, &vmanager.Ack{}); err != nil {
		e.repMu.Lock()
		addTotals(&e.pending, &delta)
		e.pending.Passes += delta.Passes
		e.repMu.Unlock()
		if firstErr == nil {
			firstErr = fmt.Errorf("repair: reporting pass: %w", err)
		}
	}
	return st, firstErr
}

// addTotals folds src's counters (except Passes, which callers manage)
// into dst.
func addTotals(dst, src *Stats) {
	dst.ChunksScanned += src.ChunksScanned
	dst.UnderReplicated += src.UnderReplicated
	dst.ReReplicated += src.ReReplicated
	dst.Migrated += src.Migrated
	dst.BytesMoved += src.BytesMoved
	dst.LeavesPatched += src.LeavesPatched
	dst.LostChunks += src.LostChunks
	dst.CorruptPurged += src.CorruptPurged
	dst.Errors += src.Errors
}

// repairItem is one under-replicated (or dead-replica-carrying) chunk's
// work order within a wave.
type repairItem struct {
	place   *chunkPlace
	healthy []string // surviving verified replicas, original order
	corrupt []string // live replicas holding a quarantined (corrupt) copy
	needed  int      // fresh copies required to reach the degree
	data    []byte
	digest  chunk.Digest // source copy's digest, forwarded with the put
	added   []string     // fresh replicas that accepted the copy
}

// repairBlob scans one blob's retained versions and restores every live
// chunk's replication degree.
func (e *Engine) repairBlob(id uint64, ps *passState, st *Stats) error {
	var info vmanager.InfoResp
	if err := e.vm.Call(vmanager.MethodInfo, &vmanager.BlobRef{BlobID: id}, &info); err != nil {
		if strings.Contains(err.Error(), "deleted") {
			return nil // deleted since listing; GC owns it
		}
		return fmt.Errorf("info: %w", err)
	}
	var status vmanager.GCStatusResp
	if err := e.vm.Call(vmanager.MethodGCStatus, &vmanager.BlobRef{BlobID: id}, &status); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	if status.Deleted || status.Published == 0 {
		return nil
	}
	sizes := make(map[uint64]uint64, len(status.Versions))
	for _, d := range status.Versions {
		sizes[d.Version] = d.SizeChunks
	}

	// The placement scan piggybacks on the GC liveness walk: the same
	// multi-root walk over every retained version, with leaf tracking on,
	// yields chunk → (replica set, referencing leaves). It fetches each
	// live node once, in one batched round per tree level across all the
	// retained versions (more only where a level holds over 16k keys):
	// O(providers × depth) RPCs per blob, however many versions it
	// retains.
	var trees []meta.Tree
	for v := status.RetainFrom; v <= status.Published; v++ {
		size, ok := sizes[v]
		if !ok {
			var vi vmanager.VersionInfoResp
			if err := e.vm.Call(vmanager.MethodVersionInfo,
				&vmanager.VersionRef{BlobID: id, Version: v}, &vi); err != nil {
				return fmt.Errorf("version %d: %w", v, err)
			}
			size = vi.SizeChunks
		}
		trees = append(trees, meta.Tree{Version: v, SizeChunks: size})
	}
	live := meta.NewLiveSet().TrackLeaves()
	if err := meta.CollectLiveInto(live, e.cfg.Meta, id, trees); err != nil {
		return fmt.Errorf("placement walk: %w", err)
	}

	repl := int(info.Replication)
	if repl < 1 {
		repl = 1
	}
	if repl > len(ps.good) {
		// The degree cannot be met with the providers alive; restore what
		// is restorable and let later passes finish when capacity returns.
		repl = len(ps.good)
	}

	// Classify every live chunk, registering placements for rebalance.
	var wave []*repairItem
	var waveBytes uint64
	keys := make([]chunk.Key, 0, len(live.Chunks))
	for k := range live.Chunks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	var firstErr error
	for _, k := range keys {
		ref := live.Chunks[k]
		st.ChunksScanned++
		place := &chunkPlace{
			blob:      id,
			key:       k,
			length:    uint64(ref.Length),
			providers: append([]string(nil), ref.Providers...),
			leaves:    live.Leaves[k],
		}
		ps.places[k] = place
		ps.order = append(ps.order, k)

		var healthy, corrupt []string
		for _, a := range ref.Providers {
			if !ps.good[a] {
				continue
			}
			if ps.corruptOn(a, k) {
				// A quarantined copy is a lost replica on a live machine:
				// never a source, re-replicated around, deleted post-patch.
				corrupt = append(corrupt, a)
				continue
			}
			healthy = append(healthy, a)
		}
		if len(corrupt) == 0 && len(healthy) == len(ref.Providers) && len(healthy) >= repl {
			continue // fully replicated on live providers
		}
		if len(healthy) == 0 {
			// No surviving verified replica: unrecoverable until a holder
			// returns. Never patched (the addresses are the only lead to
			// the data) and never dropped — just counted, loudly.
			st.LostChunks++
			continue
		}
		st.UnderReplicated++
		needed := repl - len(healthy)
		if needed < 0 {
			needed = 0
		}
		wave = append(wave, &repairItem{place: place, healthy: healthy, corrupt: corrupt, needed: needed})
		waveBytes += place.length
		if waveBytes >= batchBytes {
			if err := e.flushWave(wave, st); err != nil && firstErr == nil {
				firstErr = err
			}
			wave, waveBytes = nil, 0
		}
	}
	if len(wave) > 0 {
		if err := e.flushWave(wave, st); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flushWave repairs one wave of items: allocate fresh placements, drain
// sources with batched getchunks, push copies with batched putchunks, and
// patch the affected leaves — each phase grouped per provider so the RPC
// count tracks providers, not chunks.
func (e *Engine) flushWave(items []*repairItem, st *Stats) error {
	// keep records failures for the caller; counting happens once per
	// blob/phase in Run's fail(), not per chunk, so one flaky RPC doesn't
	// inflate Stats.Errors by its batch size.
	var firstErr error
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	e.allocateFresh(items, keep)
	e.fetchSources(items, keep)

	// Batched puts: group every (item, destination) pair by destination.
	type destBatch struct {
		addr  string
		items []*repairItem
	}
	groups := make(map[string][]*repairItem)
	for _, it := range items {
		if it.data == nil {
			continue
		}
		for _, dst := range it.added {
			groups[dst] = append(groups[dst], it)
		}
	}
	addrs := make([]string, 0, len(groups))
	for a := range groups {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	var batches []destBatch
	for _, addr := range addrs {
		for _, part := range splitByBytes(groups[addr], func(it *repairItem) uint64 { return uint64(len(it.data)) }) {
			batches = append(batches, destBatch{addr: addr, items: part})
		}
	}
	accepted := make(map[*repairItem][]string)
	for _, b := range batches {
		put := make([]provider.PutItem, len(b.items))
		for i, it := range b.items {
			put[i] = provider.PutItem{Key: it.place.key, Data: it.data, Digest: it.digest}
		}
		errs, rpcErr := provider.PutChunks(e.cfg.RPC, b.addr, put)
		if rpcErr != nil {
			keep(fmt.Errorf("repair: putchunks at %s: %w", b.addr, rpcErr))
			continue
		}
		for i, it := range b.items {
			if errs[i] != nil {
				// A duplicate-put rejection means the copy already landed
				// (an earlier partial pass); the replica is real, but no
				// new copy was created — count only fresh stores, or
				// retried passes would inflate the totals arbitrarily.
				if !strings.Contains(errs[i].Error(), chunk.ErrDuplicate.Error()) {
					keep(errs[i])
					continue
				}
				accepted[it] = append(accepted[it], b.addr)
				continue
			}
			accepted[it] = append(accepted[it], b.addr)
			st.ReReplicated++
			st.BytesMoved += uint64(len(it.data))
		}
	}

	// Patch leaves: surviving replicas first (reads prefer them — they
	// hold the bytes the fetch just proved), then the fresh copies; dead
	// addresses drop out entirely so reads stop probing them even before
	// re-replication fully caught up. EXCEPT when no survivor actually
	// yielded the chunk's bytes: the listed "survivors" are then unproven
	// — a revived provider can come back with an empty store while
	// heartbeating happily — and dropping the dead address would discard
	// the only other lead to the data, which the replica-aware GC stray
	// sweep would then reclaim off the dead provider when it returns.
	// Unreadable items keep their full descriptor and are re-detected.
	var patches []meta.ReplicaPatch
	for _, it := range items {
		if it.data == nil {
			continue
		}
		final := append(append([]string(nil), it.healthy...), accepted[it]...)
		if slices.Equal(final, it.place.providers) {
			continue
		}
		for _, leaf := range it.place.leaves {
			patches = append(patches, meta.ReplicaPatch{Key: leaf, Chunk: it.place.key, Providers: final})
		}
		it.place.providers = final
	}
	patchOK := true
	if len(patches) > 0 {
		patched, err := e.cfg.Meta.PatchReplicas(patches)
		st.LeavesPatched += patched
		if err != nil {
			keep(err)
			patchOK = false
		}
	}

	// Purge quarantined copies only once the healed descriptors landed:
	// until then a metadata replica may still route reads at the corrupt
	// address, and the quarantined file is the forensic evidence anyway.
	// Items whose bytes never drained keep their corrupt copies too — an
	// unreadable chunk must not lose any lead to its data.
	if patchOK {
		purge := make(map[string][]chunk.Key)
		for _, it := range items {
			if it.data == nil {
				continue
			}
			for _, addr := range it.corrupt {
				purge[addr] = append(purge[addr], it.place.key)
			}
		}
		purgeAddrs := make([]string, 0, len(purge))
		for a := range purge {
			purgeAddrs = append(purgeAddrs, a)
		}
		sort.Strings(purgeAddrs)
		for _, addr := range purgeAddrs {
			if _, err := provider.DeleteChunks(e.cfg.RPC, addr, purge[addr]); err != nil {
				// The quarantined copy lingers but is never served; the next
				// pass re-lists and re-purges it.
				keep(fmt.Errorf("repair: purging corrupt copies at %s: %w", addr, err))
				continue
			}
			st.CorruptPurged += uint64(len(purge[addr]))
		}
	}
	return firstErr
}

// allocateFresh asks the provider manager for each item's fresh replica
// placements, grouping items with identical (needed, exclusion) shapes
// into one allocate RPC. The exclusion set is everything the chunk ever
// touched — surviving replicas (a provider must not hold two copies) and
// dead ones (they may come back still holding theirs).
func (e *Engine) allocateFresh(items []*repairItem, keep func(error)) {
	type group struct {
		needed  int
		exclude []string
		items   []*repairItem
	}
	groups := make(map[string]*group)
	var order []string
	for _, it := range items {
		if it.needed <= 0 {
			continue
		}
		exclude := append([]string(nil), it.place.providers...)
		sort.Strings(exclude)
		sig := fmt.Sprintf("%d|%s", it.needed, strings.Join(exclude, ","))
		g := groups[sig]
		if g == nil {
			g = &group{needed: it.needed, exclude: exclude}
			groups[sig] = g
			order = append(order, sig)
		}
		g.items = append(g.items, it)
	}
	sort.Strings(order)
	for _, sig := range order {
		g := groups[sig]
		var resp pmanager.AllocateResp
		err := e.cfg.RPC.Call(e.cfg.PMAddr, pmanager.MethodAllocate,
			&pmanager.AllocateReq{
				NumChunks:   uint32(len(g.items)),
				Replication: uint32(g.needed),
				Exclude:     g.exclude,
			}, &resp)
		if err != nil || len(resp.Sets) != len(g.items) {
			if err == nil {
				err = fmt.Errorf("repair: allocator returned %d sets for %d chunks", len(resp.Sets), len(g.items))
			}
			keep(err)
			continue
		}
		for i, it := range g.items {
			have := make(map[string]bool, len(it.place.providers))
			for _, a := range it.place.providers {
				have[a] = true
			}
			for _, a := range resp.Sets[i] {
				// The allocator ignores the exclusion rather than starve, so
				// an address the chunk already touched can come back; a
				// second copy there would be useless.
				if !have[a] {
					have[a] = true
					it.added = append(it.added, a)
				}
			}
		}
	}
}

// fetchSources drains each item's chunk bytes from a surviving replica,
// batching the reads per source provider with getchunks and falling back
// to the remaining replicas for individual misses. EVERY wave item is
// probed, not just those with fresh placements: the read doubles as the
// survivor proof the patch phase requires — a heartbeat only proves a
// provider is alive, not that it still holds the chunk (a provider
// revived with an empty volatile store heartbeats happily), and a patch
// that dropped a dead address on heartbeat evidence alone could discard
// the only real copy's address for the stray sweep to then reclaim.
func (e *Engine) fetchSources(items []*repairItem, keep func(error)) {
	groups := make(map[string][]*repairItem)
	for i, it := range items {
		// Spread source load across the survivors.
		src := it.healthy[i%len(it.healthy)]
		groups[src] = append(groups[src], it)
	}
	addrs := make([]string, 0, len(groups))
	for a := range groups {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		for _, part := range splitByBytes(groups[addr], func(it *repairItem) uint64 { return it.place.length }) {
			keys := make([]chunk.Key, len(part))
			for i, it := range part {
				keys[i] = it.place.key
			}
			data, digs, err := provider.GetChunks(e.cfg.RPC, addr, keys)
			if err != nil {
				keep(fmt.Errorf("repair: getchunks at %s: %w", addr, err))
				data = make([][]byte, len(keys))
				digs = make([]chunk.Digest, len(keys))
			}
			for i, it := range part {
				it.data = data[i]
				it.digest = digs[i]
			}
		}
	}
	// Individual fallback for misses (source lost the chunk, its copy
	// failed digest verification, or its batch failed): try the other
	// survivors one by one. GetChunk verifies end-to-end, so bytes that
	// arrive here are proven good.
	for _, it := range items {
		if it.data != nil {
			continue
		}
		for _, addr := range it.healthy {
			if d, err := provider.GetChunk(e.cfg.RPC, addr, it.place.key); err == nil {
				it.data = d
				it.digest = chunk.DigestOf(d)
				break
			}
		}
		if it.data == nil {
			keep(fmt.Errorf("repair: chunk %s unreadable on all %d surviving replicas",
				it.place.key, len(it.healthy)))
		}
	}
}

// migration is one planned rebalance move: replica of key from src to dst.
type migration struct {
	place  *chunkPlace
	src    string
	dst    string
	data   []byte
	digest chunk.Digest // source copy's digest, forwarded with the put
	ok     bool         // copy landed and metadata patched; safe to delete at src
	fresh  bool         // the copy was created by this pass (not a duplicate-put)
}

// rebalance migrates chunk replicas off providers above the fullness high
// watermark onto the emptiest providers, copy → patch → delete, bounded
// by MaxMoveBytes per pass.
func (e *Engine) rebalance(ps *passState, st *Stats) error {
	// Projected bytes per provider, adjusted as moves are planned.
	proj := make(map[string]uint64, len(ps.report))
	caps := make(map[string]uint64, len(ps.report))
	for _, p := range ps.report {
		if !ps.good[p.Addr] {
			continue
		}
		proj[p.Addr] = p.Bytes
		caps[p.Addr] = p.CapBytes
	}
	fullness := func(addr string) float64 {
		if caps[addr] == 0 {
			return 0
		}
		f := float64(proj[addr]) / float64(caps[addr])
		if f > 1 {
			f = 1
		}
		return f
	}
	var sources []string
	for addr := range proj {
		if caps[addr] > 0 && fullness(addr) > e.cfg.HighWater {
			sources = append(sources, addr)
		}
	}
	if len(sources) == 0 {
		return nil
	}
	sort.Slice(sources, func(i, j int) bool {
		if fullness(sources[i]) != fullness(sources[j]) {
			return fullness(sources[i]) > fullness(sources[j])
		}
		return sources[i] < sources[j]
	})

	budget := e.cfg.MaxMoveBytes
	var plan []*migration
	// At most one migration per chunk per pass: a chunk replicated on two
	// overfull sources must not be planned twice — the second move would
	// pick the same emptiest destination (pickDest consults only the
	// plan-time provider list) and the sequential patch substitutions
	// would leave the leaf reading [dst, dst]: claimed degree 2, one
	// physical copy, and no later pass re-detects the loss. The second
	// replica moves on the next pass, against patched metadata.
	planned := make(map[chunk.Key]bool)
	for _, src := range sources {
		target := uint64(e.cfg.LowWater * float64(caps[src]))
		for _, k := range ps.order {
			if budget == 0 || proj[src] <= target {
				break
			}
			place := ps.places[k]
			if planned[k] || !slices.Contains(place.providers, src) || place.length == 0 {
				continue
			}
			if ps.corruptOn(src, k) {
				continue // a quarantined copy must never be a drain source
			}
			dst := pickDest(proj, caps, place.providers, fullness)
			if dst == "" || fullness(dst) > e.cfg.HighWater {
				// No eligible destination FOR THIS CHUNK — its replica
				// exclusion may rule out providers that other chunks can
				// still drain to, so keep scanning rather than abandoning
				// the source (a break here would stall the same drain on
				// every pass, since ps.order is deterministic).
				continue
			}
			plan = append(plan, &migration{place: place, src: src, dst: dst})
			planned[k] = true
			move := place.length
			if move > budget {
				move = budget // approximate; lengths are chunk-bounded
			}
			budget -= move
			proj[src] -= minU64(place.length, proj[src])
			proj[dst] += place.length
		}
	}
	if len(plan) == 0 {
		return nil
	}

	// As in flushWave: record here, count once in Run's fail().
	var firstErr error
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	// Copy: batched reads per source, batched puts per destination.
	bySrc := make(map[string][]*migration)
	for _, m := range plan {
		bySrc[m.src] = append(bySrc[m.src], m)
	}
	for src, ms := range bySrc {
		for _, part := range splitByBytes(ms, func(m *migration) uint64 { return m.place.length }) {
			keys := make([]chunk.Key, len(part))
			for i, m := range part {
				keys[i] = m.place.key
			}
			data, digs, err := provider.GetChunks(e.cfg.RPC, src, keys)
			if err != nil {
				keep(fmt.Errorf("repair: rebalance read at %s: %w", src, err))
				data = make([][]byte, len(keys))
				digs = make([]chunk.Digest, len(keys))
			}
			for i, m := range part {
				m.data = data[i]
				m.digest = digs[i]
			}
		}
	}
	byDst := make(map[string][]*migration)
	for _, m := range plan {
		if m.data != nil {
			byDst[m.dst] = append(byDst[m.dst], m)
		}
	}
	dsts := make([]string, 0, len(byDst))
	for a := range byDst {
		dsts = append(dsts, a)
	}
	sort.Strings(dsts)
	for _, dst := range dsts {
		for _, part := range splitByBytes(byDst[dst], func(m *migration) uint64 { return uint64(len(m.data)) }) {
			put := make([]provider.PutItem, len(part))
			for i, m := range part {
				put[i] = provider.PutItem{Key: m.place.key, Data: m.data, Digest: m.digest}
			}
			errs, rpcErr := provider.PutChunks(e.cfg.RPC, dst, put)
			for i, m := range part {
				err := rpcErr
				if err == nil {
					err = errs[i]
				}
				if err != nil && !strings.Contains(err.Error(), chunk.ErrDuplicate.Error()) {
					keep(err)
					continue
				}
				m.ok = true
				m.fresh = err == nil
			}
		}
	}

	// Patch: replace src with dst in every affected leaf, preserving the
	// replica order position.
	var patches []meta.ReplicaPatch
	var patchedMigs []*migration
	for _, m := range plan {
		if !m.ok {
			continue
		}
		final := make([]string, len(m.place.providers))
		for i, a := range m.place.providers {
			if a == m.src {
				final[i] = m.dst
			} else {
				final[i] = a
			}
		}
		for _, leaf := range m.place.leaves {
			patches = append(patches, meta.ReplicaPatch{Key: leaf, Chunk: m.place.key, Providers: final})
		}
		m.place.providers = final
		patchedMigs = append(patchedMigs, m)
	}
	if len(patches) == 0 {
		return firstErr
	}
	patched, err := e.cfg.Meta.PatchReplicas(patches)
	st.LeavesPatched += patched
	if err != nil {
		// Some metadata replica still names src: deleting the copy there
		// could strand a read routed through the unpatched replica (fatal
		// at replication 1). Keep the extra copy; the next pass re-patches
		// and the GC's stray-replica sweep reclaims it once metadata is
		// consistent.
		keep(err)
		return firstErr
	}

	// Delete the drained copies, batched per source.
	delBySrc := make(map[string][]chunk.Key)
	for _, m := range patchedMigs {
		delBySrc[m.src] = append(delBySrc[m.src], m.place.key)
		st.Migrated++
		if m.fresh {
			st.BytesMoved += uint64(len(m.data))
		}
	}
	srcs := make([]string, 0, len(delBySrc))
	for a := range delBySrc {
		srcs = append(srcs, a)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		if _, err := provider.DeleteChunks(e.cfg.RPC, src, delBySrc[src]); err != nil {
			// The copy leaks on src until the GC's stray-replica sweep
			// reclaims it (the patched metadata no longer references it
			// there); the move itself is complete.
			keep(fmt.Errorf("repair: draining %s: %w", src, err))
		}
	}
	return firstErr
}

// pickDest chooses the emptiest capacity-declaring good provider not
// already holding a replica of the chunk, falling back to capacity-less
// providers only when no declared one qualifies ("" when none does).
func pickDest(proj, caps map[string]uint64, existing []string, fullness func(string) float64) string {
	best, bestUncapped := "", ""
	for addr := range proj {
		if slices.Contains(existing, addr) {
			continue
		}
		if caps[addr] == 0 {
			// Capacity-less providers are destinations of LAST RESORT:
			// their fullness reads 0 no matter how much lands on them,
			// and without a declared capacity they can never be drained
			// later, so preferring them would build an unfixable hotspot.
			if bestUncapped == "" || proj[addr] < proj[bestUncapped] ||
				(proj[addr] == proj[bestUncapped] && addr < bestUncapped) {
				bestUncapped = addr
			}
			continue
		}
		if fullness(addr) >= 1 {
			continue // full; no room even for one more chunk
		}
		if best == "" {
			best = addr
			continue
		}
		fa, fb := fullness(addr), fullness(best)
		if fa < fb || (fa == fb && (proj[addr] < proj[best] || (proj[addr] == proj[best] && addr < best))) {
			best = addr
		}
	}
	if best == "" {
		return bestUncapped
	}
	return best
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
