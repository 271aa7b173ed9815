package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/rpc"
)

// tracedMethods are the rpc methods whose per-method metrics the traced
// run reports: every method a load client issues on some workload.
var tracedMethods = []string{
	"meta.get",
	"meta.getnodes",
	"meta.put",
	"pm.allocate",
	"pm.report",
	"provider.get",
	"provider.putchunks",
	"vm.assign",
	"vm.commit",
	"vm.latest",
}

// rpcSpan is one call a load client issued, as its client observer saw it.
type rpcSpan struct {
	method     string
	start, end time.Time
	failed     bool
}

// opSpan is one core call made by a load client, with the rpc calls it
// caused: each load client keeps one op in flight on its own rpc.Client,
// so every call its observer sees while an op is open belongs to that op.
type opSpan struct {
	kind       opKind
	start, end time.Time
	failed     bool
	rpcs       []rpcSpan
}

// clientObserver is the rpc.ClientObserver of one load client.
type clientObserver struct {
	mu      sync.Mutex
	cur     *opSpan
	spans   []*opSpan
	redials int
	stray   int // calls seen with no op open
}

func (o *clientObserver) ObserveCall(_, method string, dur time.Duration, err error) {
	end := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cur == nil {
		o.stray++
		return
	}
	o.cur.rpcs = append(o.cur.rpcs, rpcSpan{method, end.Add(-dur), end, err != nil})
}

func (o *clientObserver) ObserveRedial(string) {
	o.mu.Lock()
	o.redials++
	o.mu.Unlock()
}

// serverObserver is the rpc.ServerObserver attached to every role server:
// handler time and call count per method.
type serverObserver struct {
	mu    sync.Mutex
	calls map[string]int
	busy  map[string]time.Duration
}

func (o *serverObserver) ObserveRequest(method string, _, _ int, dur time.Duration, _ error, _ bool) {
	o.mu.Lock()
	o.calls[method]++
	o.busy[method] += dur
	o.mu.Unlock()
}

// tracer records spans from the benchmark's own code at the public
// boundaries of the layers: one span per core call, one per rpc call a
// load client issues, and per-method handler time on every server. It
// adds nothing inside the program.
type tracer struct {
	d       *deployment
	clients []*clientObserver
	server  *serverObserver
}

func newTracer(d *deployment) *tracer {
	t := &tracer{d: d, server: &serverObserver{calls: map[string]int{}, busy: map[string]time.Duration{}}}
	for range d.load {
		t.clients = append(t.clients, &clientObserver{})
	}
	return t
}

func (t *tracer) attach() {
	for i, cli := range t.d.load {
		cli.RPC().SetObserver(t.clients[i])
	}
	t.setServerObserver(t.server)
}

func (t *tracer) detach() {
	for _, cli := range t.d.load {
		cli.RPC().SetObserver(nil)
	}
	t.setServerObserver(nil)
}

func (t *tracer) setServerObserver(o rpc.ServerObserver) {
	c := t.d.c
	for _, vm := range c.VMs {
		vm.SetRPCObserver(o)
	}
	c.PM.SetRPCObserver(o)
	for _, ms := range c.MetaServers {
		ms.SetRPCObserver(o)
	}
	for _, p := range c.Providers {
		p.SetRPCObserver(o)
	}
}

// begin opens load client i's op span.
func (t *tracer) begin(i int, start time.Time) {
	o := t.clients[i]
	o.mu.Lock()
	o.cur = &opSpan{start: start}
	o.mu.Unlock()
}

// end closes load client i's op span.
func (t *tracer) end(i int, kind opKind, end time.Time, err error) {
	o := t.clients[i]
	o.mu.Lock()
	s := o.cur
	o.cur = nil
	s.kind, s.end, s.failed = kind, end, err != nil
	o.spans = append(o.spans, s)
	o.mu.Unlock()
}

// metrics derives the rpc and core self-time metrics from the spans.
// Per-op values divide by the ops traced, failed ones included.
func (t *tracer) metrics() map[string]metric {
	type agg struct {
		calls int
		dur   time.Duration
	}
	byMethod := map[string]*agg{}
	var ops, errs, redials, stray int
	var self time.Duration
	for _, o := range t.clients {
		redials += o.redials
		stray += o.stray
		for _, s := range o.spans {
			ops++
			self += s.end.Sub(s.start) - covered(s)
			for _, r := range s.rpcs {
				a := byMethod[r.method]
				if a == nil {
					a = &agg{}
					byMethod[r.method] = a
				}
				a.calls++
				a.dur += r.end.Sub(r.start)
				if r.failed {
					errs++
				}
			}
		}
	}
	m := map[string]metric{}
	if ops == 0 {
		return m
	}
	per := func(x float64) float64 { return x / float64(ops) }
	m["core.self_ms_per_op"] = metric{per(ms(self)), "ms"}
	m["rpc.errors_per_op"] = metric{per(float64(errs)), "1/op"}
	m["rpc.redials_per_op"] = metric{per(float64(redials)), "1/op"}
	var transport float64
	methods := make([]string, 0, len(byMethod))
	for method, a := range byMethod {
		methods = append(methods, method)
		clientMs := ms(a.dur) / float64(a.calls)
		m[method+".calls_per_op"] = metric{per(float64(a.calls)), "1/op"}
		m[method+".client_ms"] = metric{clientMs, "ms"}
		if n := t.server.calls[method]; n > 0 {
			serverMs := ms(t.server.busy[method]) / float64(n)
			m[method+".server_ms"] = metric{serverMs, "ms"}
			transport += float64(a.calls) * (clientMs - serverMs)
		}
	}
	sort.Strings(methods)
	fmt.Fprintf(os.Stderr, "perfbench: rpc methods issued by load clients: %v; calls outside any op: %d\n", methods, stray)
	m["rpc.transport_ms_per_op"] = metric{per(transport), "ms"}
	return m
}

// covered is how much of op s the union of its rpc intervals covers.
func covered(s *opSpan) time.Duration {
	iv := make([][2]time.Time, 0, len(s.rpcs))
	for _, r := range s.rpcs {
		lo, hi := r.start, r.end
		if lo.Before(s.start) {
			lo = s.start
		}
		if hi.After(s.end) {
			hi = s.end
		}
		if hi.After(lo) {
			iv = append(iv, [2]time.Time{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curHi) {
			total += curHi.Sub(curLo)
			curLo, curHi = x[0], x[1]
		} else if x[1].After(curHi) {
			curHi = x[1]
		}
	}
	return total + curHi.Sub(curLo)
}

// spanRecord is one line of the span file. Times are microseconds from
// the first traced op; an rpc span's parent is its op span.
type spanRecord struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Client  int     `json:"client"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Failed  bool    `json:"failed,omitempty"`
}

// writeSpans writes every recorded span to path, one JSON object a line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	var epoch time.Time
	for _, o := range t.clients {
		if len(o.spans) > 0 && (epoch.IsZero() || o.spans[0].start.Before(epoch)) {
			epoch = o.spans[0].start
		}
	}
	us := func(x time.Time) float64 { return float64(x.Sub(epoch)) / float64(time.Microsecond) }
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	for i, o := range t.clients {
		for _, s := range o.spans {
			id++
			op := id
			if err := enc.Encode(spanRecord{ID: op, Client: i, Name: "core." + s.kind.String(),
				StartUS: us(s.start), EndUS: us(s.end), Failed: s.failed}); err != nil {
				f.Close()
				return fmt.Errorf("writing spans: %w", err)
			}
			for _, r := range s.rpcs {
				id++
				if err := enc.Encode(spanRecord{ID: id, Parent: op, Client: i, Name: r.method,
					StartUS: us(r.start), EndUS: us(r.end), Failed: r.failed}); err != nil {
					f.Close()
					return fmt.Errorf("writing spans: %w", err)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
