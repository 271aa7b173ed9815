package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// maxFrame bounds a single TCP frame. Chunks are at most a few MiB in any
// sane configuration; 256 MiB leaves ample headroom while bounding memory.
const maxFrame = 256 << 20

// TCPNetwork implements Network over real TCP sockets with 4-byte
// big-endian length framing. Addresses are standard host:port strings;
// Listen on ":0" picks a free port, reported by Listener.Addr.
type TCPNetwork struct{}

// NewTCPNetwork returns the TCP transport.
func NewTCPNetwork() *TCPNetwork { return &TCPNetwork{} }

// Listen starts a TCP listener on addr.
func (n *TCPNetwork) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: tcp listen %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

// Dial opens a TCP connection to addr.
func (n *TCPNetwork) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: tcp dial %s: %w", addr, err)
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
	l net.Listener
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

func (t *tcpListener) Close() error { return t.l.Close() }

// tcpConn frames messages with a 4-byte big-endian length. Reads go
// through a bufio.Reader (one read syscall usually yields a whole small
// frame). Writes go straight to the socket as a writev of header and
// frame, so a frame is never copied in user space on its way out.
//
// Small frames were measured both ways: on loopback a single buffered
// write of header plus frame ran 1–8 KiB echo calls up to a third faster
// than writev, but neither repository benchmark workload (bulk-read, whose
// requests are small, and durable-small-ops, whose frames are all small)
// moved end to end, so there is one send path.
type tcpConn struct {
	c    net.Conn
	r    *bufio.Reader
	rhdr [4]byte // Recv's header scratch (Recv has one caller at a time)

	wm   sync.Mutex  // guards the write-side scratch below
	whdr [4]byte     // the frame's header
	iov  [2][]byte   // header + frame, re-pointed per Send
	bufs net.Buffers // the writev vector over iov (consumed by WriteTo)
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, r: bufio.NewReaderSize(c, 64<<10)}
}

func (t *tcpConn) Send(msg []byte) error {
	if len(msg) > maxFrame {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", len(msg))
	}
	t.wm.Lock()
	defer t.wm.Unlock()
	binary.BigEndian.PutUint32(t.whdr[:], uint32(len(msg)))
	t.iov = [2][]byte{t.whdr[:], msg}
	t.bufs = t.iov[:]
	// WriteTo loops until everything is written or the socket fails, and
	// nils out each element as it completes, so msg is not retained.
	_, err := t.bufs.WriteTo(t.c)
	return err
}

func (t *tcpConn) Recv() ([]byte, error) {
	if _, err := io.ReadFull(t.r, t.rhdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(t.rhdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: inbound frame of %d bytes exceeds limit", n)
	}
	// A fresh buffer per frame: the receiver owns it (see Conn).
	msg := make([]byte, n)
	if _, err := io.ReadFull(t.r, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

func (t *tcpConn) Close() error { return t.c.Close() }
