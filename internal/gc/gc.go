// Package gc implements BlobSeer's distributed garbage collector: the
// reclamation flip side of lock-free versioning. Every write stores only a
// diff, so without GC a long-running deployment grows without bound. The
// version manager owns the *policy* (per-blob retention floors, blob
// tombstones); this package owns the *mechanism*: walking the metadata
// segment trees to compute liveness and issuing delete RPCs to metadata
// and data providers.
//
// Liveness is structural. Trees are persistent, so a pruned version's
// nodes and chunks may still be referenced by retained snapshots; a node
// or chunk of a pruned version is dead iff it is not reachable from ANY
// retained version's tree. The live set is one multi-root walk over every
// retained snapshot: each round fetches the frontier of all the trees at
// once and shared subtrees are fetched once, so a sweep costs about one
// batched round per tree level and fetches only the distinct live nodes,
// not versions × tree size. It stays correct even when the retention
// floor lands on an aborted version whose tree was never fully woven.
// The candidate set — what a floor advance might free — is the old
// floor's reachable set plus the owned subgraphs of the newly pruned
// versions (one more multi-root walk); dead = candidates \ live.
//
// The orphan sweep handles the other leak: chunks uploaded ahead of
// version assignment (phase 1 of the write protocol) whose writer aborted
// cleanly or crashed before its write was assigned. Providers report
// per-chunk ages; a chunk older than the grace period referenced by no
// retained snapshot is an orphan. The grace protects phase-1 uploads of
// writes still in flight, which the version manager cannot know about
// yet. A writer that crashes BETWEEN Assign and Commit/Abort holds its
// version in flight only until its write lease lapses; the version
// manager's expiry loop then aborts the version, so the parked orphan
// sweep resumes within a lease TTL instead of waiting for an operator.
//
// The unwoven sweep closes the remaining repair gap: an aborted version
// whose identity tree never reached the metadata plane (the crash took
// the aborting client or the control plane down mid-repair) is listed by
// the version manager, re-woven here via meta.WeaveIdentity, and
// acknowledged — so dangling in-flight descriptors are repairable by any
// sweeper, not only by the writer that noticed the failure.
package gc

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/meta"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// Config wires a Sweeper to a deployment.
type Config struct {
	// RPC is the connection cache to run delete/list calls over.
	RPC *rpc.Client
	// Meta is the metadata DHT view (same ring as the clients'), usually
	// a *meta.Client.
	Meta MetaStore
	// VMAddr locates the version manager.
	VMAddr string
	// VMAddrs lists a replicated version-manager group (supersedes VMAddr
	// when set): the sweeper follows leadership redirects and re-resolves
	// the leader across failovers, so reclamation survives the control
	// plane moving.
	VMAddrs []string
	// Providers returns the data-provider addresses to sweep for orphans
	// and blob deletions. May return different sets over time (membership
	// changes between passes).
	Providers func() []string
	// OrphanGrace is the minimum age before an unreferenced chunk is
	// considered an aborted-write orphan (default 5m). Must comfortably
	// exceed the longest plausible write: phase-1 uploads happen before
	// the version manager knows the write exists.
	OrphanGrace time.Duration
}

// MetaStore is the sweeper's view of the metadata plane: the node store
// its walks and identity weaves use, plus the deletes.
type MetaStore interface {
	meta.Store
	DeleteNodes(keys []meta.NodeKey) (uint64, error)
	DeleteBlob(blob uint64) (uint64, error)
}

// Stats counts what one sweep (or a Sweeper's lifetime) reclaimed.
type Stats struct {
	Chunks  uint64
	Bytes   uint64
	Nodes   uint64
	Orphans uint64
	// Woven counts aborted versions whose missing identity trees this
	// sweep rebuilt (repair, not reclamation).
	Woven uint64
}

func (s Stats) String() string {
	return fmt.Sprintf("chunks=%d bytes=%d nodes=%d orphans=%d woven=%d", s.Chunks, s.Bytes, s.Nodes, s.Orphans, s.Woven)
}

func (s *Stats) add(o Stats) {
	s.Chunks += o.Chunks
	s.Bytes += o.Bytes
	s.Nodes += o.Nodes
	s.Orphans += o.Orphans
	s.Woven += o.Woven
}

// Sweeper executes garbage-collection passes against one deployment. It is
// stateless between passes (all progress bookkeeping lives at the version
// manager), so any node may run one and crashed sweeps simply rerun.
type Sweeper struct {
	cfg Config
	// vm routes version-manager calls to the current group leader.
	vm *vmanager.Caller

	// confirmed memoizes, per chunk key the orphan sweep has proven
	// referenced by a metadata tree, the REPLICA SET that reference named
	// at confirmation time. Chunk references are immutable in identity but
	// repair-mutable in placement, so the memo must remember where the
	// copies were supposed to live: a copy on a provider the memo lists is
	// settled (skip the walk — the steady-state sweep costs one ListChunks
	// per provider, no tree walks), while a copy on a provider the memo
	// does NOT list forces a re-walk, which either re-confirms it (the
	// repair engine re-homed the chunk there) or reclaims it as a STRAY
	// replica — a copy the repair engine patched out of the metadata (a
	// drained rebalance source whose delete failed, or a dead provider
	// that came back still holding re-replicated chunks).
	// The memo can only go stale in one direction: a patch moves a
	// replica OFF an address the memo still lists, and the skip check
	// would then shield that stray copy from the re-walk forever (a
	// long-lived sweeper that confirmed before the repair never looks
	// again). Patches are globally counted at the version manager
	// (RepairTotals.LeavesPatched), so each orphan pass compares that
	// counter and flushes the whole memo when repair activity happened
	// since the last pass — the next pass re-walks and re-confirms
	// against the patched placement. Repair is rare; the flush costs one
	// extra walk round per repair burst, not per pass.
	confirmedMu sync.Mutex
	confirmed   map[chunk.Key][]string
	lastPatched uint64

	// Lifetime reclamation counters (also reported to the version
	// manager, which aggregates across sweepers).
	ReclaimedChunks metrics.Counter
	ReclaimedBytes  metrics.Counter
	ReclaimedNodes  metrics.Counter
	Orphans         metrics.Counter
}

// New validates cfg and builds a Sweeper.
func New(cfg Config) (*Sweeper, error) {
	if cfg.RPC == nil || cfg.Meta == nil {
		return nil, fmt.Errorf("gc: RPC client and metadata client are required")
	}
	if cfg.VMAddr == "" && len(cfg.VMAddrs) == 0 {
		return nil, fmt.Errorf("gc: version manager address is required")
	}
	if cfg.Providers == nil {
		cfg.Providers = func() []string { return nil }
	}
	if cfg.OrphanGrace <= 0 {
		cfg.OrphanGrace = 5 * time.Minute
	}
	vmAddrs := cfg.VMAddrs
	if len(vmAddrs) == 0 {
		vmAddrs = []string{cfg.VMAddr}
	}
	return &Sweeper{
		cfg:       cfg,
		vm:        vmanager.NewCaller(cfg.RPC, vmAddrs),
		confirmed: make(map[chunk.Key][]string),
	}, nil
}

// Run executes one full pass: every blob with pending prune or deletion
// work is swept, then every live blob gets an orphan sweep. Errors on one
// blob don't stop the pass; the first error is returned at the end.
func (s *Sweeper) Run() (Stats, error) {
	var total Stats
	var firstErr error
	var work vmanager.ListResp
	if err := s.vm.Call(vmanager.MethodGCWork, &vmanager.Ack{}, &work); err != nil {
		return total, fmt.Errorf("gc: listing work: %w", err)
	}
	for _, id := range work.IDs {
		st, err := s.SweepBlob(id)
		total.add(st)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	wst, err := s.sweepUnwoven()
	total.add(wst)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	var live vmanager.ListResp
	if err := s.vm.Call(vmanager.MethodList, &vmanager.Ack{}, &live); err != nil {
		if firstErr == nil {
			firstErr = err
		}
		return total, firstErr
	}
	st, err := s.sweepOrphans(live.IDs)
	total.add(st)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	return total, firstErr
}

// sweepUnwoven repairs aborted versions still owed an identity tree —
// recovery aborts, expiry aborts whose weave failed, and client aborts
// that died mid-repair. meta.WeaveIdentity is idempotent (same input,
// byte-identical nodes), so racing another sweeper or the expiry loop is
// harmless; the MarkWoven ack simply stops the version from being listed
// again. Running BEFORE the orphan sweep matters: the weave turns an
// aborted version's dangling tree range into references the liveness walk
// can actually follow.
func (s *Sweeper) sweepUnwoven() (Stats, error) {
	var st Stats
	var resp vmanager.UnwovenResp
	if err := s.vm.Call(vmanager.MethodUnwoven, &vmanager.Ack{}, &resp); err != nil {
		return st, fmt.Errorf("gc: listing unwoven aborts: %w", err)
	}
	var firstErr error
	for _, in := range resp.Items {
		if err := meta.WeaveIdentity(s.cfg.Meta, in); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("gc: weaving identity for blob %d v%d: %w", in.Blob, in.Version, err)
			}
			continue
		}
		if err := s.vm.Call(vmanager.MethodMarkWoven,
			&vmanager.VersionRef{BlobID: in.Blob, Version: in.Version}, &vmanager.Ack{}); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("gc: acking woven blob %d v%d: %w", in.Blob, in.Version, err)
			}
			continue
		}
		st.Woven++
	}
	return st, firstErr
}

// SweepBlob reclaims one blob's pending work: all pruned versions below
// the retention floor, or everything if the blob was deleted.
func (s *Sweeper) SweepBlob(id uint64) (Stats, error) {
	var st Stats
	var status vmanager.GCStatusResp
	err := s.vm.Call(vmanager.MethodGCStatus, &vmanager.BlobRef{BlobID: id}, &status)
	if err != nil {
		return st, fmt.Errorf("gc: status of blob %d: %w", id, err)
	}
	if status.Deleted {
		return s.sweepDeleted(id, &status)
	}
	return s.sweepPruned(id, &status)
}

// sweepPruned reclaims a floor advance F1 -> F2 by diffing the adjacent
// floor trees: dead = (reachable(F1) ∪ owned(v) for v in (F1, F2)) \
// reachable(F2). reachable(F1) carries everything below the old floor that
// earlier sweeps deliberately kept alive (shared subtrees); the owned
// subgraphs carry the versions pruned by this advance.
func (s *Sweeper) sweepPruned(id uint64, status *vmanager.GCStatusResp) (Stats, error) {
	var st Stats
	oldFloor, newFloor := status.ReclaimedTo, status.RetainFrom
	if oldFloor >= newFloor {
		return st, nil // nothing pending
	}
	byVersion := descsByVersion(status)
	live, err := s.collectRetainedLive(id, status, byVersion)
	if err != nil {
		return st, err
	}
	candidates, err := meta.CollectLive(s.cfg.Meta, id, oldFloor, byVersion[oldFloor].SizeChunks)
	if err != nil {
		return st, fmt.Errorf("gc: candidate walk of blob %d v%d: %w", id, oldFloor, err)
	}
	pruned := make([]meta.Tree, 0, newFloor-oldFloor-1)
	for v := oldFloor + 1; v < newFloor; v++ {
		pruned = append(pruned, meta.Tree{Version: v, SizeChunks: byVersion[v].SizeChunks})
	}
	if err := candidates.AddOwned(s.cfg.Meta, id, pruned); err != nil {
		return st, fmt.Errorf("gc: owned walk of blob %d versions (%d,%d): %w", id, oldFloor, newFloor, err)
	}
	deadNodes, deadChunks := meta.DiffDead(candidates, live)
	st.add(s.deleteChunks(deadChunks))
	// Delete bottom-up (leaves first, root last): a retry after a partial
	// failure re-walks the old floor tree, and that walk can only reach a
	// surviving node through its ancestors. Deleting ancestors before
	// descendants would turn a transient replica outage into permanently
	// undiscoverable (leaked) subtrees.
	sort.Slice(deadNodes, func(i, j int) bool { return deadNodes[i].Size < deadNodes[j].Size })
	for lo := 0; lo < len(deadNodes); {
		hi := lo
		for hi < len(deadNodes) && deadNodes[hi].Size == deadNodes[lo].Size {
			hi++
		}
		dropped, err := s.cfg.Meta.DeleteNodes(deadNodes[lo:hi])
		st.Nodes += dropped
		if err != nil {
			return st, s.report(id, oldFloor, false, 0, st, err)
		}
		lo = hi
	}
	return st, s.report(id, newFloor, false, 0, st, nil)
}

// sweepDeleted drops every trace of a deleted blob: all metadata nodes on
// every DHT member, and all chunks on every data provider. The tombstone
// is only marked swept when every provider was actually visited: an empty
// or failing membership view must leave the blob in GCWork so a later
// pass retries (chunks on an unlisted provider would otherwise leak
// forever).
func (s *Sweeper) sweepDeleted(id uint64, status *vmanager.GCStatusResp) (Stats, error) {
	var st Stats
	dropped, err := s.cfg.Meta.DeleteBlob(id)
	st.Nodes += dropped
	if err != nil {
		return st, s.report(id, 0, false, 0, st, err)
	}
	providers := s.cfg.Providers()
	if len(providers) == 0 {
		return st, s.report(id, 0, false, 0, st,
			fmt.Errorf("gc: blob %d: no provider membership view; deletion sweep deferred", id))
	}
	s.forgetConfirmed(id)
	for _, addr := range providers {
		// Tombstone BEFORE listing: any phase-1 upload racing this sweep
		// either lands before the listing (and is deleted below) or is
		// rejected by the tombstone — it can no longer slip in after the
		// listing and leak until the next sweep.
		if err := provider.Tombstone(s.cfg.RPC, addr, []uint64{id}); err != nil {
			return st, s.report(id, 0, false, 0, st, err)
		}
		inv, err := provider.ListChunks(s.cfg.RPC, addr, id)
		if err != nil {
			return st, s.report(id, 0, false, 0, st, err)
		}
		if len(inv.Keys) == 0 {
			continue
		}
		resp, err := provider.DeleteChunks(s.cfg.RPC, addr, inv.Keys)
		if err != nil {
			return st, s.report(id, 0, false, 0, st, err)
		}
		st.Chunks += resp.Deleted
		st.Bytes += resp.Bytes
	}
	// Echo the pre-sweep finish generation: if any write finished while
	// this sweep ran, its uploads may postdate our listings and the
	// version manager will refuse the latch, queueing one more sweep.
	return st, s.report(id, 0, true, status.FinishGen, st, nil)
}

// SweepOrphans reclaims aborted-write leftovers on one live blob — chunks
// stored on providers, older than the grace period, and referenced by no
// retained snapshot — plus stray replicas: copies of live chunks on
// providers no retained leaf names anymore (see reclaimOrphans).
func (s *Sweeper) SweepOrphans(id uint64) (Stats, error) {
	return s.sweepOrphans([]uint64{id})
}

// flushConfirmedIfRepaired drops the confirmation memo when the version
// manager's cumulative leaves-patched counter moved since the last
// orphan pass: some replica set changed, and a memoized pre-patch
// placement could otherwise shield a stray copy from the re-walk forever
// (see the confirmed field). Errors leave the memo alone — better one
// stale pass than flushing on every transient RPC failure.
func (s *Sweeper) flushConfirmedIfRepaired() {
	var rt vmanager.RepairTotals
	if err := s.vm.Call(vmanager.MethodRepairStats, &vmanager.Ack{}, &rt); err != nil {
		return
	}
	s.confirmedMu.Lock()
	if rt.LeavesPatched != s.lastPatched {
		s.lastPatched = rt.LeavesPatched
		s.confirmed = make(map[chunk.Key][]string)
	}
	s.confirmedMu.Unlock()
}

// sweepOrphans runs the orphan sweep over a set of blobs with ONE full
// inventory listing per provider (not one per blob): candidates are
// chunks past the grace period and not already proven referenced. In
// steady state every settled chunk is memoized as confirmed, so an idle
// pass costs one ListChunks per provider — no tree walks, regardless of
// blob count.
func (s *Sweeper) sweepOrphans(ids []uint64) (Stats, error) {
	var st Stats
	if len(ids) == 0 {
		return st, nil
	}
	idSet := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		idSet[id] = true
	}
	s.flushConfirmedIfRepaired()
	graceMs := uint64(s.cfg.OrphanGrace / time.Millisecond)
	// aged[blob][provider] = orphan candidates found there.
	aged := make(map[uint64]map[string][]chunk.Key)
	for _, addr := range s.cfg.Providers() {
		inv, err := provider.ListChunks(s.cfg.RPC, addr, 0)
		if err != nil {
			continue // provider down; next pass retries
		}
		s.confirmedMu.Lock()
		for i, k := range inv.Keys {
			if !idSet[k.Blob] || inv.AgeMs[i] < graceMs {
				continue
			}
			if addrs, ok := s.confirmed[k]; ok && slices.Contains(addrs, addr) {
				continue // settled copy where the memoized reference put it
			}
			byAddr := aged[k.Blob]
			if byAddr == nil {
				byAddr = make(map[string][]chunk.Key)
				aged[k.Blob] = byAddr
			}
			byAddr[addr] = append(byAddr[addr], k)
		}
		s.confirmedMu.Unlock()
	}
	var firstErr error
	for id, byAddr := range aged {
		bst, err := s.reclaimOrphans(id, byAddr)
		st.add(bst)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return st, firstErr
}

// reclaimOrphans resolves one blob's orphan candidates against its
// retained snapshots and deletes the unreferenced ones. It refuses to run
// while the blob has writes in flight: an assigned-but-unpublished
// version may legitimately reference chunks that no readable tree
// mentions yet. (A writer that crashes between Assign and Commit parks
// this sweep only until its lease lapses and the version manager's
// expiry loop aborts the version; with leases disabled, until a manager
// restart.) A never-written blob (assigned == 0) is sweepable: nothing
// can be referenced, so every aged candidate is a crashed pre-assign
// upload.
func (s *Sweeper) reclaimOrphans(id uint64, byAddr map[string][]chunk.Key) (Stats, error) {
	var st Stats
	var status vmanager.GCStatusResp
	err := s.vm.Call(vmanager.MethodGCStatus, &vmanager.BlobRef{BlobID: id}, &status)
	if err != nil {
		return st, fmt.Errorf("gc: status of blob %d: %w", id, err)
	}
	if status.Deleted || status.Assigned != status.Published {
		return st, nil
	}
	live, err := s.collectRetainedLive(id, &status, descsByVersion(&status))
	if err != nil {
		return st, err
	}
	for addr, keys := range byAddr {
		var dead []chunk.Key
		for _, k := range keys {
			if ref, ok := live.Chunks[k]; ok {
				if slices.Contains(ref.Providers, addr) {
					s.confirmedMu.Lock()
					s.confirmed[k] = ref.Providers
					s.confirmedMu.Unlock()
					continue
				}
				// Live chunk, but no retained leaf places a replica HERE:
				// a stray copy the repair engine patched out (failed drain
				// delete, or a dead provider returned after its chunks
				// were re-homed). The referenced replicas elsewhere keep
				// the data safe; this copy is reclaimable.
			}
			dead = append(dead, k)
		}
		if len(dead) == 0 {
			continue
		}
		resp, err := provider.DeleteChunks(s.cfg.RPC, addr, dead)
		if err != nil {
			continue
		}
		st.Chunks += resp.Deleted
		st.Bytes += resp.Bytes
		st.Orphans += resp.Deleted
	}
	if st.Orphans > 0 {
		return st, s.report(id, 0, false, 0, st, nil)
	}
	return st, nil
}

// descsByVersion indexes a GC status's version descriptors by version.
func descsByVersion(status *vmanager.GCStatusResp) map[uint64]meta.WriteDesc {
	byVersion := make(map[uint64]meta.WriteDesc, len(status.Versions))
	for _, d := range status.Versions {
		byVersion[d.Version] = d
	}
	return byVersion
}

// collectRetainedLive walks EVERY retained version's full tree
// [RetainFrom, Published] into one live set, in one multi-root walk:
// a round per tree level, not per level per version. Anchoring on all
// retained versions (not just the floor) keeps the sweep correct even
// when the floor is an aborted version with a missing or partial tree.
func (s *Sweeper) collectRetainedLive(id uint64, status *vmanager.GCStatusResp, byVersion map[uint64]meta.WriteDesc) (*meta.LiveSet, error) {
	var trees []meta.Tree
	for v := status.RetainFrom; v <= status.Published; v++ {
		size, err := s.versionSize(id, v, byVersion)
		if err != nil {
			return nil, err
		}
		trees = append(trees, meta.Tree{Version: v, SizeChunks: size})
	}
	live := meta.NewLiveSet()
	if err := meta.CollectLiveInto(live, s.cfg.Meta, id, trees); err != nil {
		return nil, fmt.Errorf("gc: live walk of blob %d versions [%d,%d]: %w", id, status.RetainFrom, status.Published, err)
	}
	return live, nil
}

// versionSize resolves a version's tree shape, preferring the descriptors
// the GC status already carries over an extra RPC.
func (s *Sweeper) versionSize(id, v uint64, byVersion map[uint64]meta.WriteDesc) (uint64, error) {
	if d, ok := byVersion[v]; ok {
		return d.SizeChunks, nil
	}
	var vi vmanager.VersionInfoResp
	err := s.vm.Call(vmanager.MethodVersionInfo,
		&vmanager.VersionRef{BlobID: id, Version: v}, &vi)
	if err != nil {
		return 0, fmt.Errorf("gc: version %d of blob %d: %w", v, id, err)
	}
	return vi.SizeChunks, nil
}

// forgetConfirmed evicts one blob's keys from the confirmed-live memo
// (full blob deletion kills them all).
func (s *Sweeper) forgetConfirmed(blob uint64) {
	s.confirmedMu.Lock()
	for k := range s.confirmed {
		if k.Blob == blob {
			delete(s.confirmed, k)
		}
	}
	s.confirmedMu.Unlock()
}

// deleteChunks removes dead chunks from every replica that holds them,
// grouping keys per provider address.
func (s *Sweeper) deleteChunks(dead []meta.ChunkRef) Stats {
	var st Stats
	batches := make(map[string][]chunk.Key)
	s.confirmedMu.Lock()
	for _, c := range dead {
		// The chunk is being reclaimed; keeping its memo entry would leak
		// a map entry per chunk ever written.
		delete(s.confirmed, c.Key)
		for _, addr := range c.Providers {
			batches[addr] = append(batches[addr], c.Key)
		}
	}
	s.confirmedMu.Unlock()
	for addr, keys := range batches {
		resp, err := provider.DeleteChunks(s.cfg.RPC, addr, keys)
		if err != nil {
			// A down provider keeps its (unreachable-anyway) copies;
			// the prune frontier still advances — re-replication tooling,
			// not GC, owns post-failure inventory repair.
			continue
		}
		st.Chunks += resp.Deleted
		st.Bytes += resp.Bytes
	}
	return st
}

// report posts sweep results to the version manager (advancing the sweep
// frontier and the global stats) and folds them into the local counters.
// When called with a sweep error, the frontier still advances only to what
// was actually completed by the caller's bookkeeping; the error wins.
func (s *Sweeper) report(id, reclaimedTo uint64, deletedSwept bool, finishGen uint64, st Stats, sweepErr error) error {
	s.ReclaimedChunks.Add(int64(st.Chunks))
	s.ReclaimedBytes.Add(int64(st.Bytes))
	s.ReclaimedNodes.Add(int64(st.Nodes))
	s.Orphans.Add(int64(st.Orphans))
	req := &vmanager.GCReportReq{
		BlobID:       id,
		ReclaimedTo:  reclaimedTo,
		DeletedSwept: deletedSwept && sweepErr == nil,
		FinishGen:    finishGen,
		Chunks:       st.Chunks,
		Bytes:        st.Bytes,
		Nodes:        st.Nodes,
		Orphans:      st.Orphans,
	}
	if err := s.vm.Call(vmanager.MethodGCReport, req, &vmanager.Ack{}); err != nil && sweepErr == nil {
		sweepErr = fmt.Errorf("gc: reporting sweep of blob %d: %w", id, err)
	}
	return sweepErr
}
