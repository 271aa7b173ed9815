package rpc

import (
	"sync"

	"repro/internal/wire"
)

// Framing-buffer pool for the client and server send paths. A call
// encodes its request, and a handler its reply, straight into a pooled
// frame; without pooling that is one fresh allocation (growing to the
// frame size) per request AND per response, which the garbage collector
// pays for on the hot path. Send is done with the buffer when it returns
// (SimNetwork copies before scheduling delivery, tcpConn writes
// synchronously), so an encoder can be recycled as soon as the last Send
// of its frame returns.
var encPool = sync.Pool{
	New: func() any { return wire.NewEncoder(256) },
}

// getEncoder returns an empty encoder from the pool.
func getEncoder() *wire.Encoder {
	e := encPool.Get().(*wire.Encoder)
	e.Reset()
	return e
}

// maxPooledFrame keeps encoders that grew past a 1 MiB chunk frame (with
// room for its framing) out of the pool, so one multi-megabyte batch does
// not pin that much memory behind every pooled encoder.
const maxPooledFrame = 2 << 20

// putEncoder recycles an encoder. Callers must not retain e.Bytes()
// afterwards.
func putEncoder(e *wire.Encoder) {
	if cap(e.Bytes()) > maxPooledFrame {
		return
	}
	encPool.Put(e)
}
