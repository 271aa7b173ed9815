package rpc

import (
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Frame kinds inside a transport message.
const (
	kindRequest  = 0
	kindResponse = 1
)

// Response status codes.
const (
	statusOK       = 0
	statusError    = 1
	statusRedirect = 2
)

// Handler processes one request payload and encodes its reply body
// straight into resp, the pooled response frame, so a reply is copied once
// on its way to the wire instead of being marshalled and then framed.
//
// payload aliases the inbound frame, which the server owns and never
// reuses: a handler may keep slices of it. resp must not be retained past
// the return. Returning an error (or panicking) discards whatever was
// encoded into resp and sends a status-error frame instead; the error
// text crosses the wire verbatim, and an error implementing
// RedirectTarget() string becomes a redirect.
type Handler func(payload []byte, resp *wire.Encoder) error

// Server dispatches inbound requests to registered handlers. Each accepted
// connection gets a reader goroutine; each request runs in its own
// goroutine so a slow handler never blocks the connection.
type Server struct {
	network Network
	addr    string

	mu       sync.Mutex
	handlers map[string]Handler
	observer ServerObserver
	tracer   *trace.Tracer
	gate     func(method string) error
	listener Listener
	conns    map[Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer creates a server that will listen on addr when Start is called.
func NewServer(network Network, addr string) *Server {
	return &Server{
		network:  network,
		addr:     addr,
		handlers: make(map[string]Handler),
		conns:    make(map[Conn]struct{}),
	}
}

// Handle registers h for the given method name. It must be called before
// Start; registering twice for one method panics (a programming error).
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler for %q", method))
	}
	s.handlers[method] = h
}

// HandleMsg registers a typed handler: req is decoded into a fresh value
// produced by newReq, and the returned message is encoded as the response.
func HandleMsg[Req wire.Message, Resp wire.Message](s *Server, method string, newReq func() Req, h func(Req) (Resp, error)) {
	s.Handle(method, func(payload []byte, enc *wire.Encoder) error {
		req := newReq()
		if err := wire.Unmarshal(payload, req); err != nil {
			return err
		}
		resp, err := h(req)
		if err != nil {
			return err
		}
		resp.Encode(enc)
		return nil
	})
}

// SetGate installs a per-request admission check, run before every
// handler with the method name. A non-nil error is returned to the caller
// without invoking the handler — the HA leader gate redirecting a
// follower's clients. The gate decides per method, so a server can keep
// some methods (discovery, replication) always answerable.
func (s *Server) SetGate(gate func(method string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate = gate
}

// Start begins listening and serving. It returns once the listener is
// established; serving continues in background goroutines until Close.
func (s *Server) Start() error {
	l, err := s.network.Listen(s.addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	s.listener = l
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(l)
	return nil
}

// Addr returns the listener's address (useful with TCP ":0").
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener != nil {
		return s.listener.Addr()
	}
	return s.addr
}

func (s *Server) acceptLoop(l Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		dec := wire.NewDecoder(msg)
		kind := dec.U8()
		id := dec.U64()
		method := dec.String()
		payload := dec.Bytes()
		if dec.Err() != nil || kind != kindRequest {
			log.Printf("rpc: dropping malformed frame on %s", s.addr)
			continue
		}
		// The request may carry a trace-context trailer after the payload;
		// frames from older peers simply don't, and decode as trace-free.
		sc := decodeTraceTrailer(dec)
		// No copy: msg is a fresh frame this loop never touches again
		// (see Conn), so the handler owns payload outright.
		go s.dispatch(conn, id, method, payload, sc)
	}
}

func (s *Server) dispatch(conn Conn, id uint64, method string, payload []byte, sc trace.SpanContext) {
	s.mu.Lock()
	h, ok := s.handlers[method]
	obs := s.observer
	tracer := s.tracer
	gate := s.gate
	s.mu.Unlock()

	act := tracer.StartRemote(sc, method) // trace-free frames get a flight-recorder-only span
	var start time.Time
	if obs != nil {
		start = time.Now()
	}

	// Frame: kind | id | status | body bytes, the handler encoding the
	// body in place.
	enc := getEncoder()
	enc.PutU8(kindResponse)
	enc.PutU64(id)
	statusAt := enc.Len()
	enc.PutU8(statusOK)
	bodyAt := enc.BeginBytes()

	var err error
	var panicked bool
	if !ok {
		err = fmt.Errorf("rpc: no handler for method %q", method)
	} else {
		if gate != nil {
			err = gate(method)
		}
		if err == nil {
			err, panicked = invoke(h, method, payload, enc)
		}
	}
	body := enc.Len() - bodyAt
	out := body
	if err != nil {
		// Roll back to the status byte: no partially encoded body may
		// reach the wire ahead of the error.
		enc.Truncate(statusAt)
		body, out = 0, len(err.Error())
		var rd redirector
		if errors.As(err, &rd) {
			// The handler knows who owns this request (a deposed leader
			// pointing at its successor): ship the target as structure,
			// not prose, so the client can follow it.
			enc.PutU8(statusRedirect)
			enc.PutString(rd.RedirectTarget())
		} else {
			enc.PutU8(statusError)
		}
		enc.PutString(err.Error())
	} else {
		enc.EndBytes(bodyAt)
	}
	if obs != nil {
		dur := time.Since(start)
		if tobs, isTraced := obs.(TracedServerObserver); isTraced && act.Sampled() {
			tobs.ObserveRequestTraced(method, len(payload), out, dur, err, panicked, act.TraceID())
		} else {
			obs.ObserveRequest(method, len(payload), out, dur, err, panicked)
		}
	}
	if act != nil {
		act.SetBytes(int64(len(payload) + body))
		act.Finish(err)
	}

	// A send failure means the connection died; the client observes it
	// directly. Either way the frame buffer is recyclable afterwards.
	_ = conn.Send(enc.Bytes())
	putEncoder(enc)
}

// invoke runs h, converting a panic into a status-error response instead of
// letting it kill the process (and, with it, every connection the server
// holds). The panic still reaches the log — it is a server bug — but one
// poisoned request must not take down unrelated callers. The caller rolls
// back whatever h encoded before failing.
func invoke(h Handler, method string, payload []byte, enc *wire.Encoder) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("rpc: handler for %q panicked: %v", method, r)
			log.Printf("rpc: recovered handler panic in %q: %v\n%s", method, r, debug.Stack())
		}
	}()
	return h(payload, enc), false
}

// Close stops the listener and tears down every open connection, then waits
// for serving goroutines to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	l := s.listener
	conns := make([]Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
