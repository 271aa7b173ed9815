//go:build !race

// The race detector makes sync.Pool drop recycled items at random, which
// would charge pooled frames to the budget, so these checks run only
// without it (make race still runs every other rpc test).

package rpc

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

// bytesPerRun reports the average heap bytes allocated per call of f,
// process-wide (client and server goroutines alike), after one warm-up
// call that dials and fills the frame pools.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestTCPOneWayCopyBudget pins the rpc copy budget: a 1 MiB one-way call
// over TCP allocates one payload-sized buffer, the fresh frame the
// server's Recv returns, plus a small constant. The request is encoded
// into a pooled frame, written with writev and handed to the handler
// in place; a copy creeping back into any of those steps costs another
// MiB per call and fails here.
func TestTCPOneWayCopyBudget(t *testing.T) {
	const payload = 1 << 20
	network := NewTCPNetwork()
	srv := NewServer(network, "127.0.0.1:0")
	srv.Handle("sink", func([]byte, *wire.Encoder) error { return nil })
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(network, 10*time.Second)
	defer cli.Close()

	req := rawMsg(make([]byte, payload))
	call := func() {
		if err := cli.Call(srv.Addr(), "sink", req, nil); err != nil {
			t.Fatal(err)
		}
	}
	// One receiving side gets the payload. The slack (a quarter payload)
	// covers size-class rounding and per-call bookkeeping; it is well
	// short of the full payload a second copy would add.
	if got, budget := bytesPerRun(40, call), 1.25*payload; got > budget {
		t.Errorf("1 MiB one-way TCP call allocates %.0f B/op, budget %.0f (one payload-sized frame)", got, budget)
	}
	if got := testing.AllocsPerRun(40, call); got > 30 {
		t.Errorf("1 MiB one-way TCP call makes %.0f allocs/op, budget 30", got)
	}
}
