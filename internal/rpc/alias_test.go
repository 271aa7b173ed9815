package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// halfReplyServer serves handlers that encode part of a reply body and
// then fail in each of the ways a handler can: a plain error, a redirect
// and a panic.
func halfReplyServer(t *testing.T, network Network, addr string) *Server {
	t.Helper()
	srv := NewServer(network, addr)
	partial := func(resp *wire.Encoder) {
		resp.PutRaw(bytes.Repeat([]byte("STALE"), 4096))
	}
	srv.Handle("half-error", func(_ []byte, resp *wire.Encoder) error {
		partial(resp)
		return errors.New("gave up")
	})
	srv.Handle("half-redirect", func(_ []byte, resp *wire.Encoder) error {
		partial(resp)
		return &notOwner{target: "elsewhere:1"}
	})
	srv.Handle("half-panic", func(_ []byte, resp *wire.Encoder) error {
		partial(resp)
		panic("mid-reply")
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestFailedHandlerSendsCleanStatusFrame checks, byte for byte, that a
// handler failing after it started encoding its reply puts only the
// status frame on the wire: the partial body is rolled back, not sent
// ahead of (or behind) the error.
func TestFailedHandlerSendsCleanStatusFrame(t *testing.T) {
	for _, tc := range []struct {
		name    string
		network Network
		addr    string
	}{
		{"sim", NewSimNetwork(nil), "svc"},
		{"tcp", NewTCPNetwork(), "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := halfReplyServer(t, tc.network, tc.addr)
			conn, err := tc.network.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for id, method := range []string{"half-error", "half-redirect", "half-panic"} {
				req := wire.NewEncoder(64)
				req.PutU8(kindRequest)
				req.PutU64(uint64(id))
				req.PutString(method)
				req.PutBytes([]byte("q"))
				if err := conn.Send(req.Bytes()); err != nil {
					t.Fatal(err)
				}
				frame, err := conn.Recv()
				if err != nil {
					t.Fatal(err)
				}

				want := wire.NewEncoder(64)
				want.PutU8(kindResponse)
				want.PutU64(uint64(id))
				switch method {
				case "half-error":
					want.PutU8(statusError)
					want.PutString("gave up")
				case "half-redirect":
					want.PutU8(statusRedirect)
					want.PutString("elsewhere:1")
					want.PutString("not the owner")
				case "half-panic":
					// The panic text is the one part not known in advance.
					dec := wire.NewDecoder(frame)
					dec.U8()
					dec.U64()
					if st := dec.U8(); st != statusError {
						t.Fatalf("%s: status %d, want %d", method, st, statusError)
					}
					msg := dec.String()
					if dec.Err() != nil || dec.Remaining() != 0 {
						t.Fatalf("%s: malformed status frame (err %v, %d trailing bytes)", method, dec.Err(), dec.Remaining())
					}
					want.PutU8(statusError)
					want.PutString(msg)
				}
				if !bytes.Equal(frame, want.Bytes()) {
					t.Fatalf("%s: frame is %d bytes, want the %d-byte status frame %q", method, len(frame), want.Len(), want.Bytes())
				}
				if bytes.Contains(frame, []byte("STALE")) {
					t.Fatalf("%s: partial reply body leaked onto the wire", method)
				}
			}
		})
	}
}

// TestRetainedBytesStayIntact checks both ends of the in-place decode: a
// handler keeping its request payload, and a caller keeping its reply
// body, must each see their bytes unchanged after many more calls on the
// same connection. Nothing may recycle a received frame.
func TestRetainedBytesStayIntact(t *testing.T) {
	for _, tc := range []struct {
		name    string
		network Network
		addr    string
	}{
		{"sim", NewSimNetwork(nil), "svc"},
		{"tcp", NewTCPNetwork(), "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			kept := map[string][]byte{} // payloads the handler held on to
			srv := NewServer(tc.network, tc.addr)
			srv.Handle("keep", func(payload []byte, resp *wire.Encoder) error {
				mu.Lock()
				kept[string(payload[:8])] = payload
				mu.Unlock()
				resp.PutRaw(bytes.ToUpper(payload))
				return nil
			})
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cli := NewClient(tc.network, 10*time.Second)
			defer cli.Close()

			payloadOf := func(i int) []byte {
				return []byte(fmt.Sprintf("call%04d", i) + string(bytes.Repeat([]byte{'a' + byte(i%26)}, 8192)))
			}
			const calls = 64
			replies := make([][]byte, calls)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < calls; i += 4 {
						r, err := cli.callRaw(context.Background(), srv.Addr(), "keep", payloadOf(i))
						if err != nil {
							t.Error(err)
							return
						}
						replies[i] = r
					}
				}(g)
			}
			wg.Wait()
			for i := 0; i < calls; i++ {
				want := payloadOf(i)
				if !bytes.Equal(replies[i], bytes.ToUpper(want)) {
					t.Fatalf("reply %d changed after later calls on the connection", i)
				}
				mu.Lock()
				got := kept[string(want[:8])]
				mu.Unlock()
				if !bytes.Equal(got, want) {
					t.Fatalf("payload %d kept by the handler changed after later calls", i)
				}
			}
		})
	}
}
