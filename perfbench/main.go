// Command perfbench is the repository's end-to-end benchmark of the code
// itself (the netsim experiments E1–E14 reproduce the paper's shapes and
// are not this benchmark). Each workload deploys an in-process cluster
// over TCP loopback — 4 data providers, 2 metadata providers, replication
// 1 — and drives it through the public core client API from 2 closed-loop
// client goroutines, each owning its own core.Client and keeping one op in
// flight. Every output is checked. Run it from the repository root:
//
//	bash perfbench/run.sh --workload bulk-read --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object. Each run warms
// the load up untimed first. With --trace 0 the object holds the
// end-to-end metrics of one timed window; with --trace 1 the run measures
// an untraced and then a traced window, each half as long, and reports
// the per-layer metrics of the traced one plus the tracing overhead. Per-layer counters are sampled around the timed window in
// every run and printed to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// loadClients is the number of closed-loop client goroutines.
	loadClients = 2
	// setupReps is how many times a --trace 0 run deploys and preloads;
	// setup_s is their median, and the last deployment is measured.
	setupReps = 9
	// sliceWidth is the width of the parts of the window the end-to-end
	// metrics are taken over: each reported value is the median of its
	// value in each one-second slice, so CPU contention from outside the
	// process that lasts less than half the window moves it little. A
	// slice spans one tick of the durable deployment's GC loop, so every
	// slice holds one sweep.
	sliceWidth = time.Second
	// warmUp is how long the load runs untimed before each timed window:
	// long enough for the durable blob to pass its retention, so the GC
	// sweeps versions from the first timed second on.
	warmUp = 3 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "length of the measured time, in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for durable deployments and span files")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(w, *seed, window, *workDir)
	} else {
		res, err = runPlain(w, *seed, window, *workDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runPlain measures the end-to-end metrics: setupReps deployments (the
// median set-up time is reported), then a warm-up and one timed window on
// the last.
func runPlain(w *workload, seed uint64, window time.Duration, workDir string) (*result, error) {
	var setups []float64
	var d *deployment
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.close()
			d = nil
			// Hand the last round's memory back, so that its garbage does
			// not raise the peak the measured round reports.
			debug.FreeOSMemory()
		}
		// Write back what earlier rounds and runs left dirty, so that the
		// durable deployment's directory and snapshot fsyncs do not wait
		// behind it: without this, the first rounds after a durable run
		// took up to three times as long as the later ones.
		syscall.Sync()
		start := time.Now()
		var err error
		if d, err = deploy(w, seed, workDir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()

	syscall.Sync()
	warm := runWindow(d, warmUp, nil)
	before, err := sample(d)
	if err != nil {
		return nil, err
	}
	ws := runWindow(d, window, nil)
	after, err := sample(d)
	if err != nil {
		return nil, err
	}
	verifyErr := d.verify()
	logLayers(w.name, layerMetrics(d, before, after, ws))

	res := newResult(verifyErr, warm, ws)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: set-up rounds (s): %.3f\n", w.name, seed, setups)
	rd, wr := ws.latencies(opRead), ws.latencies(opWrite)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops in %.2fs; p50/p99 ms: reads (%d) %.3f/%.3f, writes (%d) %.3f/%.3f\n",
		w.name, seed, ws.ops(), ws.elapsed.Seconds(),
		len(rd), ms(quantile(rd, 0.5)), ms(quantile(rd, 0.99)), len(wr), ms(quantile(wr, 0.5)), ms(quantile(wr, 0.99)))
	res.Metrics = sliceMetrics(ws, window)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return res, nil
}

// sliceMetrics derives the timed end-to-end metrics: each is the median
// over the window's slices of its value in the slice. An op's latency
// belongs to the slice it completed in, and its ops and bytes are shared
// among the slices its run overlaps, in proportion to the overlap; the
// last slice runs on to the end of the ops still in flight at the
// deadline. The tail is the p90: the p99 doubled in runs that other
// tenants' CPU contention hit, which no bound could hold, so the p99s
// are per-layer metrics, one per op kind.
func sliceMetrics(ws *windowStats, window time.Duration) map[string]metric {
	n := max(int(window/sliceWidth), 1)
	// edge(j) is where slice j starts; edge(n) is the end of the window.
	edge := func(j int) time.Duration {
		if j == n {
			return max(ws.elapsed, window)
		}
		return time.Duration(j) * sliceWidth
	}
	slice := func(t time.Duration) int { return min(int(t/sliceWidth), n-1) }
	parts := make([]struct {
		lat        []time.Duration
		ops, bytes float64
	}, n)
	for _, s := range ws.samples {
		start := s.end - s.dur
		last := slice(s.end)
		parts[last].lat = append(parts[last].lat, s.dur)
		for j := slice(start); j <= last; j++ {
			share := 1.0
			if s.dur > 0 {
				share = float64(min(s.end, edge(j+1))-max(start, edge(j))) / float64(s.dur)
			}
			parts[j].ops += share
			parts[j].bytes += share * float64(s.bytes)
		}
	}
	var mbps, ops, p50, p90 []float64
	for j, p := range parts {
		secs := (edge(j+1) - edge(j)).Seconds()
		mbps = append(mbps, p.bytes/1e6/secs)
		ops = append(ops, p.ops/secs)
		p50 = append(p50, ms(quantile(p.lat, 0.50)))
		p90 = append(p90, ms(quantile(p.lat, 0.90)))
	}
	return map[string]metric{
		"throughput_mbps": {median(mbps), "MB/s"},
		"ops_per_s":       {median(ops), "1/s"},
		"op_p50_ms":       {median(p50), "ms"},
		"op_p90_ms":       {median(p90), "ms"},
	}
}

// runTraced measures, after a warm-up, an untraced and then a traced
// window on one deployment, each half the run, and reports the per-layer metrics of the
// traced window plus the traced/untraced throughput ratio. The latency of
// the core read and write calls is taken from the untraced window. The
// spans are written to workDir when the run ends.
func runTraced(w *workload, seed uint64, window time.Duration, workDir string) (*result, error) {
	d, err := deploy(w, seed, workDir)
	if err != nil {
		return nil, err
	}
	defer d.close()
	warm := runWindow(d, warmUp, nil)
	plain := runWindow(d, window/2, nil)

	tr := newTracer(d)
	before, err := sample(d)
	if err != nil {
		return nil, err
	}
	tr.attach()
	ws := runWindow(d, window/2, tr)
	tr.detach()
	after, err := sample(d)
	if err != nil {
		return nil, err
	}
	verifyErr := d.verify()

	layers := layerMetrics(d, before, after, ws)
	for k, v := range tr.metrics() {
		layers[k] = v
	}
	for _, kind := range []opKind{opRead, opWrite} {
		lat := plain.latencies(kind)
		layers["core."+kind.String()+"_p50_ms"] = metric{ms(quantile(lat, 0.50)), "ms"}
		layers["core."+kind.String()+"_p99_ms"] = metric{ms(quantile(lat, 0.99)), "ms"}
	}
	if plain.ops() > 0 {
		layers["tracing.throughput_ratio"] = metric{
			(float64(ws.ops()) / ws.elapsed.Seconds()) / (float64(plain.ops()) / plain.elapsed.Seconds()), "ratio"}
	}
	logLayers(w.name, layers)
	spans := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeSpans(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d traced ops; spans in %s\n", w.name, ws.ops(), spans)

	res := newResult(verifyErr, warm, plain, ws)
	res.Metrics = map[string]metric{}
	for _, l := range perLayer {
		m, ok := layers[l.name]
		if !ok {
			m = metric{0, l.unit}
		}
		res.Metrics[l.name] = m
	}
	return res, nil
}

// newResult fills the correctness fields from the run's windows: every
// failed or mis-read op counts as failed, and a mis-read or a failed
// verification makes the run incorrect.
func newResult(verifyErr error, windows ...*windowStats) *result {
	res := &result{Correct: verifyErr == nil}
	for _, ws := range windows {
		res.Attempted += ws.ops() + ws.failed
		res.Failed += ws.failed
		if ws.mismatches > 0 {
			res.Correct = false
		}
		if ws.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %d failed ops (%d mis-reads); first: %v\n", ws.failed, ws.mismatches, ws.firstErr)
		}
	}
	if verifyErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: verification failed: %v\n", verifyErr)
	}
	return res
}

// opKind tells reads from writes in the latency samples.
type opKind int

const (
	opRead opKind = iota
	opWrite
)

func (k opKind) String() string {
	if k == opRead {
		return "read"
	}
	return "write"
}

// errMismatch marks an op whose output failed its check.
var errMismatch = errors.New("output mismatch")

// opSample is one op that succeeded.
type opSample struct {
	end   time.Duration // since the window opened
	dur   time.Duration
	kind  opKind
	bytes int
}

// windowStats is what one timed window measured. Failed ops are counted
// but take no part in latency or throughput.
type windowStats struct {
	elapsed    time.Duration
	samples    []opSample
	failed     int
	mismatches int
	firstErr   error
}

func (ws *windowStats) ops() int { return len(ws.samples) }

func (ws *windowStats) latencies(k opKind) []time.Duration {
	var lat []time.Duration
	for _, s := range ws.samples {
		if s.kind == k {
			lat = append(lat, s.dur)
		}
	}
	return lat
}

func (ws *windowStats) bytes(k opKind) int64 {
	var n int64
	for _, s := range ws.samples {
		if s.kind == k {
			n += int64(s.bytes)
		}
	}
	return n
}

// runWindow runs every load client's op loop for dur and collects what
// they measured. With a tracer each op is recorded as a span.
func runWindow(d *deployment, dur time.Duration, tr *tracer) *windowStats {
	per := make([]windowStats, len(d.ops))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i, op := range d.ops {
		wg.Add(1)
		go func(i int, op opFunc, ws *windowStats) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if tr != nil {
					tr.begin(i, t0)
				}
				kind, n, err := op()
				t1 := time.Now()
				if tr != nil {
					tr.end(i, kind, t1, err)
				}
				if err != nil {
					ws.failed++
					if errors.Is(err, errMismatch) {
						ws.mismatches++
					}
					if ws.firstErr == nil {
						ws.firstErr = fmt.Errorf("%s: %w", kind, err)
					}
					continue
				}
				ws.samples = append(ws.samples, opSample{t1.Sub(start), t1.Sub(t0), kind, n})
			}
		}(i, op, &per[i])
	}
	wg.Wait()
	total := &windowStats{elapsed: time.Since(start)}
	for i := range per {
		total.samples = append(total.samples, per[i].samples...)
		total.failed += per[i].failed
		total.mismatches += per[i].mismatches
		if total.firstErr == nil {
			total.firstErr = per[i].firstErr
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs (nearest rank; 0 when empty).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
// The cluster and the load generator share the process.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// logLayers prints the per-layer metrics, one per line, to standard error.
func logLayers(workload string, layers map[string]metric) {
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %s layer %-40s %12.4f %s\n", workload, k, layers[k].Value, layers[k].Unit)
	}
}
