//go:build !race

// The race detector makes sync.Pool drop recycled items at random, which
// would charge pooled reply frames to the budget, so this check runs only
// without it.

package provider_test

import (
	"runtime"
	"testing"

	"repro/internal/provider"
)

// TestGetCopyBudget pins the data plane's copy budget on the read path:
// a 64 KiB provider.get round trip over TCP allocates one payload-sized
// buffer, the reply frame the client's Recv returns, plus a small
// constant. The provider encodes the chunk straight into a pooled reply
// frame and the client decodes GetResp.Data in place, so a copy creeping
// back into either side costs another 64 KiB per call and fails here.
func TestGetCopyBudget(t *testing.T) {
	const size = 64 << 10
	cli, addr, key := startTCPProviderWithChunk(t, size)
	get := func() {
		if _, err := provider.GetChunk(cli, addr, key); err != nil {
			t.Fatal(err)
		}
	}
	get() // dial and fill the frame pools
	var before, after runtime.MemStats
	const runs = 100
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	// One receiving side gets the payload. The slack (a quarter payload)
	// covers size-class rounding and per-call bookkeeping; it is well
	// short of the full payload a second copy would add.
	if got, budget := float64(after.TotalAlloc-before.TotalAlloc)/runs, 1.25*size; got > budget {
		t.Errorf("64 KiB provider.get allocates %.0f B/op, budget %.0f (one payload-sized frame)", got, budget)
	}
	if got := testing.AllocsPerRun(runs, get); got > 40 {
		t.Errorf("64 KiB provider.get makes %.0f allocs/op, budget 40", got)
	}
}
