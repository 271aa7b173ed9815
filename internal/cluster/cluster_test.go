package cluster_test

import (
	"bytes"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/netsim"
)

func TestDefaultsApplied(t *testing.T) {
	c, err := cluster.Start(cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.ProviderAddrs()) != 4 {
		t.Errorf("providers = %d, want default 4", len(c.ProviderAddrs()))
	}
	if len(c.MetaAddrs()) != 2 {
		t.Errorf("meta providers = %d, want default 2", len(c.MetaAddrs()))
	}
	if c.Fabric == nil {
		t.Error("default fabric missing (fault injection would be a no-op)")
	}
	if c.VMAddr() == "" || c.PMAddr() == "" {
		t.Error("manager addresses empty")
	}
}

func TestKillReviveCycle(t *testing.T) {
	c, err := cluster.Start(cluster.Config{DataProviders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.ProviderAddrs()[1]
	c.KillProvider(1)
	if !c.Fabric.IsDown(addr) {
		t.Fatal("provider not down after kill")
	}
	c.ReviveProvider(1)
	if c.Fabric.IsDown(addr) {
		t.Fatal("provider down after revive")
	}
	// Out-of-range indices are ignored.
	c.KillProvider(99)
	c.ReviveProvider(-1)
}

func TestCustomStoreFactory(t *testing.T) {
	dir := t.TempDir()
	var made int
	c, err := cluster.Start(cluster.Config{
		DataProviders: 2,
		StoreFactory: func(i int) (chunk.Store, error) {
			made++
			return chunk.NewDiskStore(dir+"/"+string(rune('a'+i)), false)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if made != 2 {
		t.Errorf("factory called %d times", made)
	}
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blob.Write(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	// Chunks must be on disk in both provider stores.
	total := 0
	for _, p := range c.Providers {
		total += p.Store().Len()
	}
	if total != 8 { // 4 chunks x 2 replicas
		t.Errorf("stored chunks = %d, want 8", total)
	}
}

func TestShapedFabricAffectsThroughput(t *testing.T) {
	slow, err := cluster.Start(cluster.Config{
		DataProviders: 2,
		Fabric:        netsim.NewFabric(netsim.Config{BandwidthBps: 2e6}), // 2 MB/s
	})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	cli, err := slow.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(64<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := blob.Write(make([]byte, 512<<10), 0); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 512 KiB at 2 MB/s through the client NIC >= ~250ms.
	if elapsed < 200*time.Millisecond {
		t.Errorf("write of 512KiB at 2MB/s took only %v; shaping not applied", elapsed)
	}
}

func TestNamedClients(t *testing.T) {
	c, err := cluster.Start(cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.NewClient(cluster.ClientOptions{Name: "alpha"}); err != nil {
		t.Fatal(err)
	}
	// Auto-named clients must not collide with each other.
	for i := 0; i < 3; i++ {
		if _, err := c.NewClient(cluster.ClientOptions{}); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

// TestTCPProvidersHeartbeatUnderBoundAddress runs a TCP deployment with
// the default heartbeat timeout. Providers listen on "127.0.0.1:0", so a
// heartbeat naming the configured address instead of the bound one would
// register a phantom provider the manager keeps placing chunks on, while
// the real providers age out. The live set must be exactly the bound
// provider addresses, and writes must keep succeeding well past the
// timeout, which only the heartbeats themselves can keep alive.
func TestTCPProvidersHeartbeatUnderBoundAddress(t *testing.T) {
	c, err := cluster.Start(cluster.Config{UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cli.CreateBlob(4096, 1)
	if err != nil {
		t.Fatal(err)
	}

	const timeout = time.Second // cluster.Start's default HeartbeatTimeout
	time.Sleep(3 * timeout)

	want := append([]string(nil), c.ProviderAddrs()...)
	sort.Strings(want)
	var live []string
	for _, p := range c.PM.Manager().Report() {
		if p.Live {
			live = append(live, p.Addr)
		}
	}
	if !slices.Equal(live, want) {
		t.Fatalf("live providers %v, want exactly the bound addresses %v", live, want)
	}
	data := make([]byte, 64<<10) // 16 chunks, spread over every provider
	for i := range data {
		data[i] = byte(i)
	}
	v, err := blob.Write(data, 0)
	if err != nil {
		t.Fatalf("write after %v of heartbeats: %v", 3*timeout, err)
	}
	got := make([]byte, len(data))
	if _, err := blob.Read(v, got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}
