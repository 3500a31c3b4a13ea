// Command perfbench is the p2psize benchmark: four closed-loop workloads
// (one client each) that drive the library through its exported
// functions and report end-to-end metrics, or, with -trace 1, per-module
// metrics from spans the benchmark records around each module call.
//
//	bash perfbench/run.sh --workload static-estimate --seed 1 --seconds 10 --trace 0
//	go run . -manifest ../BENCHMARK.json   # regenerate BENCHMARK.json
//
// The last line of standard output is the JSON result; the lines before
// it are a human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// scale sizes a workload. The full scale is what the benchmark measures;
// the tiny scale serves the self-tests and fills the traced run's
// per-module metrics for modules the measured workload does not drive.
type scale struct {
	name        string
	nodes       int           // simulated overlay size
	daemons     int           // live-cluster daemons
	horizon     float64       // churn trace horizon
	meanSession float64       // churn mean session length
	setupReps   int           // least set-ups per run; setup_s is their median
	setupBudget time.Duration // least total set-up time per run
	minOps      int           // ops a timed phase completes at least
}

var (
	fullScale = scale{name: "full", nodes: 100_000, daemons: 32, horizon: 1000, meanSession: 500,
		setupReps: 3, setupBudget: time.Second, minOps: 100}
	tinyScale = scale{name: "tiny", nodes: 2000, daemons: 4, horizon: 100, meanSession: 50,
		setupReps: 1, minOps: 1}
)

// env is what a workload's set-up and ops see.
type env struct {
	seed  uint64
	sc    scale
	nproc int
	tr    *tracer // nil while untraced
}

// workload is one input set the benchmark runs.
type workload struct {
	name string
	why  string
	// period is how many batches one output period spans: batch b and
	// batch b+period run identical inputs and must produce identical
	// fingerprints.
	period int
	// gated lists the workload in BENCHMARK.json, whose runs gate later
	// changes; an ungated workload still runs from the command line and
	// still supplies its modules' per-module metrics.
	gated bool
	setup func(e *env) (session, error)
}

// session is a set-up workload.
type session interface {
	// batch runs batch b: one op, or for churn-monitor a whole
	// monitoring run of many ops.
	batch(e *env, b int) (batchOut, error)
	// layer derives the per-module metrics the workload measures from
	// its traced phase.
	layer(e *env, spans []span) (map[string]float64, error)
	close()
}

// batchOut is one batch's outcome.
type batchOut struct {
	wall    time.Duration // busy time, excluding any between-period reset
	opsMs   []float64     // latency of each op
	msgs    uint64        // metered protocol messages
	errs    []float64     // |estimate/true − 1| of every estimate served
	failed  int           // failed ops
	invalid int           // ops whose outputs failed a correctness check
	fp      uint64        // fingerprint of the batch's outputs
}

var workloads = []workload{
	{
		name:   "static-estimate",
		why:    "100k-node overlay, one estimate from each of six one-shot families per op: walk arithmetic, graph reads, metering and xrand; no writes",
		period: staticPeriod,
		gated:  true,
		setup:  setupStatic,
	},
	{
		name:   "gossip-rounds",
		why:    "one aggregation, push-sum and CYCLON round per op on COW clones of a 100k overlay: the sharded round engine and CYCLON's GC load",
		period: gossipPeriod,
		gated:  true,
		setup:  setupGossip,
	},
	{
		name:   "churn-monitor",
		why:    "RunMonitor over a Weibull churn trace on 100k nodes: the only writes (trace replay, join wiring, COW page ownership) beside estimates",
		period: 1,
		// Ungated: its latency percentiles come from a few seconds of
		// each monitoring run (one instance's samples run back to
		// back), so machine noise moved op_ms_p90 across ten seeds by
		// 16% and 28% of the median in two sets, past the widest bound.
		setup: setupChurn,
	},
	{
		name:   "live-cluster",
		why:    "cluster.Run against 32 in-process UDP daemons per op: the JSON frame codec, the socket path and the control-plane RPCs",
		period: livePeriod,
		gated:  true,
		setup:  setupLive,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runLimit is the wall-clock budget of one run; past it the run fails
// rather than overrun the caller's timeout.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", runSeconds, "timed-phase length in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-module metrics")
	spans := fs.String("spans", "", "directory for the traced run's span log (JSON lines)")
	manifestPath := fs.String("manifest", "", "write BENCHMARK.json to this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifestPath != "" {
		b, err := manifestJSON()
		if err == nil {
			err = os.WriteFile(*manifestPath, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *traceFlag < 0 || *traceFlag > 1 || !(*seconds >= 0) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -trace 0|1 and -seconds >= 0\n", workloadNames())
		return 2
	}
	timer := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", w.name, runLimit)
		os.Exit(3)
	})
	defer timer.Stop()

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	res, err := measureWorkload(w, &env{seed: *seed, sc: fullScale, nproc: nproc},
		time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if *traceFlag == 1 && *spans != "" {
		path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res.spansPath = path
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// phase is one timed phase's record.
type phase struct {
	batches    []batchOut
	traced     []bool // per batch: ran with spans on
	wall       time.Duration
	ops        int
	failed     int
	invalid    int
	mismatches int // batches whose fingerprint differs from their period slot's
	allocBytes uint64
}

// measure runs batches until the phase has lasted d, completed minOps
// ops and more than one period, so at least one batch repeats an
// earlier one's inputs and must repeat its fingerprint. With alt set, odd batches run traced
// on alt and even ones untraced, so the two halves see the same machine
// and the difference of their rates is the tracing overhead; each half
// then needs minOps/2 ops, and at least one batch. Without alt, e.tr is
// used as it is.
func measure(e *env, w workload, s session, d time.Duration, minOps int, alt *tracer) (*phase, error) {
	ph := &phase{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var fps []uint64
	for b := 0; ; b++ {
		if alt != nil {
			e.tr = nil
			if b%2 == 1 {
				e.tr = alt
			}
		}
		out, err := s.batch(e, b)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		ph.batches = append(ph.batches, out)
		ph.traced = append(ph.traced, e.tr != nil)
		ph.wall += out.wall
		ph.ops += len(out.opsMs)
		ph.failed += out.failed
		ph.invalid += out.invalid
		if b < w.period {
			fps = append(fps, out.fp)
		} else if out.fp != fps[b%w.period] {
			ph.mismatches++
		}
		enough := ph.ops >= minOps
		if alt != nil {
			half := max(minOps/2, 1)
			enough = ph.opsOf(true) >= half && ph.opsOf(false) >= half
		}
		if b+1 > w.period && enough && time.Since(start) >= d {
			break
		}
	}
	if alt != nil {
		e.tr = nil
	}
	runtime.ReadMemStats(&m1)
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return ph, nil
}

// opsOf counts the ops of the traced (or untraced) batches.
func (ph *phase) opsOf(traced bool) int {
	n := 0
	for i, b := range ph.batches {
		if ph.traced[i] == traced {
			n += len(b.opsMs)
		}
	}
	return n
}

// opsPerSecOf is the op rate of the traced (or untraced) batches.
func (ph *phase) opsPerSecOf(traced bool) float64 {
	var wall time.Duration
	for i, b := range ph.batches {
		if ph.traced[i] == traced {
			wall += b.wall
		}
	}
	return float64(ph.opsOf(traced)) / wall.Seconds()
}

// fullPeriods returns the batches of the phase's complete periods,
// whose message and error means are exact for a fixed seed.
func (ph *phase) fullPeriods(period int) []batchOut {
	return ph.batches[:len(ph.batches)/period*period]
}

// fingerprint folds the first period's batch fingerprints.
func (ph *phase) fingerprint(period int) uint64 {
	fp := newFingerprint()
	for _, b := range ph.batches[:period] {
		fp.word(b.fp)
	}
	return fp.sum()
}

func (ph *phase) opsPerSec() float64 { return float64(ph.ops) / ph.wall.Seconds() }

func (ph *phase) latencies() []float64 {
	var out []float64
	for _, b := range ph.batches {
		out = append(out, b.opsMs...)
	}
	return out
}

// e2e computes the end-to-end metrics of an untraced phase. Message
// counts come from the complete periods only, so they are exact for a
// fixed seed.
func (ph *phase) e2e(period int, setupS float64) map[string]float64 {
	var msgs uint64
	var ops int
	for _, b := range ph.fullPeriods(period) {
		msgs += b.msgs
		ops += len(b.opsMs)
	}
	lat := ph.latencies()
	return map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       ph.opsPerSec(),
		"op_ms_p50":       quantile(lat, 0.5),
		"op_ms_p90":       quantile(lat, 0.9),
		"msgs_per_op":     float64(msgs) / float64(ops),
		"alloc_mb_per_op": float64(ph.allocBytes) / float64(ph.ops) / (1 << 20),
		"peak_rss_mb":     peakRSSMB(),
	}
}

// errorPct is the paper's accuracy measure, mean |estimate/true − 1|·100
// over every estimate the complete periods served: exact for a fixed
// seed, but its spread across seeds is the estimators' own, so it is
// reported beside the gated metrics rather than among them.
func (ph *phase) errorPct(period int) float64 {
	var errs []float64
	for _, b := range ph.fullPeriods(period) {
		errs = append(errs, b.errs...)
	}
	return mean(errs) * 100
}

// result is one run's outcome.
type result struct {
	workload    string
	seed        uint64
	nproc       int
	traced      bool
	correct     bool
	attempted   int
	failed      int
	mismatches  int
	invalid     int
	fingerprint uint64
	metrics     map[string]float64
	errorPct    float64           // reported, not gated; see phase.errorPct
	source      map[string]string // per-module metric → pass that measured it
	self        map[string]time.Duration
	spans       []span
	spansPath   string
}

// maxSetupReps caps the set-up repeats: set-up runs until it has run
// setupReps times and setupBudget in total, so a millisecond set-up
// still yields a steady median.
const maxSetupReps = 100

// setupRuns builds the workload repeatedly and keeps the last session;
// setup_s is the median build time.
func setupRuns(w workload, e *env) (session, float64, error) {
	var times []float64
	var total time.Duration
	var s session
	for r := 0; r < e.sc.setupReps || (total < e.sc.setupBudget && r < maxSetupReps); r++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = w.setup(e); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return s, median(times), nil
}

// measureWorkload sets the workload up and measures it. Untraced, it
// reports the end-to-end metrics. Traced, it alternates untraced and
// traced batches — their op-rate difference is the tracing overhead —
// and reports per-module metrics: from the traced batches for the
// modules this workload drives, and from tiny-scale traced passes of the
// other workloads for the rest.
func measureWorkload(w workload, e *env, d time.Duration, traced bool) (*result, error) {
	s, setupS, err := setupRuns(w, e)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res := &result{workload: w.name, seed: e.seed, nproc: e.nproc, traced: traced}
	if !traced {
		ph, err := measure(e, w, s, d, e.sc.minOps, nil)
		if err != nil {
			return nil, err
		}
		res.record(ph, w.period)
		res.metrics = ph.e2e(w.period, setupS)
		res.errorPct = ph.errorPct(w.period)
		return res, res.check(e2eNames())
	}

	tr := newTracer(w.name + "/" + e.sc.name)
	ph, err := measure(e, w, s, d, e.sc.minOps, tr)
	if err != nil {
		return nil, err
	}
	res.record(ph, w.period)
	res.errorPct = ph.errorPct(w.period)
	res.spans = tr.snapshot()
	res.metrics, err = s.layer(e, res.spans)
	if err != nil {
		return nil, err
	}
	res.source = make(map[string]string)
	for k := range res.metrics {
		res.source[k] = w.name
	}
	plain, spanned := ph.opsPerSecOf(false), ph.opsPerSecOf(true)
	res.metrics["bench.untraced_ops_per_s"] = plain
	res.metrics["bench.traced_ops_per_s"] = spanned
	res.metrics["bench.tracing_overhead_pct"] = (plain - spanned) / plain * 100
	for _, k := range []string{"bench.untraced_ops_per_s", "bench.traced_ops_per_s", "bench.tracing_overhead_pct"} {
		res.source[k] = w.name
	}
	res.self = selfTimes(res.spans)

	for _, other := range workloads {
		if other.name == w.name || !res.missing() {
			continue
		}
		m, spans, err := tinyPass(other, e.seed, e.nproc)
		if err != nil {
			return nil, fmt.Errorf("tiny %s pass: %w", other.name, err)
		}
		res.spans = append(res.spans, spans...)
		for k, v := range m {
			if _, ok := res.metrics[k]; !ok {
				res.metrics[k] = v
				res.source[k] = other.name + "/tiny"
			}
		}
	}
	return res, res.check(layerNames())
}

// tinyPass runs w traced at the tiny scale, for just over one period,
// and returns the per-module metrics it measures.
func tinyPass(w workload, seed uint64, nproc int) (map[string]float64, []span, error) {
	e := &env{seed: seed, sc: tinyScale, nproc: nproc, tr: newTracer(w.name + "/" + tinyScale.name)}
	s, err := w.setup(e)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	ph, err := measure(e, w, s, 0, e.sc.minOps, nil)
	if err != nil {
		return nil, nil, err
	}
	if ph.failed != 0 || ph.invalid != 0 || ph.mismatches != 0 {
		return nil, nil, fmt.Errorf("%d failed ops, %d invalid ops, %d fingerprint mismatches", ph.failed, ph.invalid, ph.mismatches)
	}
	spans := e.tr.snapshot()
	m, err := s.layer(e, spans)
	return m, spans, err
}

// record keeps the phase's counts and output fingerprint.
func (r *result) record(ph *phase, period int) {
	r.fingerprint = ph.fingerprint(period)
	r.attempted = ph.ops
	r.failed = ph.failed
	r.mismatches = ph.mismatches
	r.invalid = ph.invalid
}

func (r *result) missing() bool {
	for _, n := range layerNames() {
		if _, ok := r.metrics[n]; !ok {
			return true
		}
	}
	return false
}

// check verifies the run produced exactly the declared metrics, all
// finite, and sets correct: no failed op, no invalid output and no
// disagreeing repeat.
func (r *result) check(names []string) error {
	for _, n := range names {
		v, ok := r.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", n, v)
		}
	}
	if len(r.metrics) != len(names) {
		return fmt.Errorf("measured %d metrics, declared %d", len(r.metrics), len(names))
	}
	r.correct = r.mismatches == 0 && r.invalid == 0 && r.failed == 0 && r.attempted > 0
	return nil
}

func e2eNames() []string {
	var out []string
	for _, m := range e2eMetrics {
		out = append(out, m.Name)
	}
	return out
}

func layerNames() []string {
	var out []string
	for _, m := range layerMetrics() {
		out = append(out, m.Name)
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the text report and, as the last line, the JSON result.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v\n", r.workload, r.seed, r.traced)
	fmt.Fprintf(w, "nproc %d  GOMAXPROCS %d  %s %s/%s\n", r.nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "correct %v  attempted %d  failed %d  failed_frac %.6f  invalid %d  fingerprint %016x  fingerprint mismatches %d\n",
		r.correct, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)), r.invalid, r.fingerprint, r.mismatches)
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	if !r.traced {
		for _, m := range e2eMetrics {
			v := r.metrics[m.Name]
			fmt.Fprintf(w, "  %-22s %14.6g %-6s (%s is better)\n", m.Name, v, m.Unit, m.Better)
			out.Metrics[m.Name] = jsonMetric{v, m.Unit}
		}
		fmt.Fprintf(w, "  %-22s %14.6g %-6s (lower is better; not gated)\n", "error_pct", r.errorPct, "%")
	} else {
		for _, m := range layerMetrics() {
			v := r.metrics[m.Name]
			fmt.Fprintf(w, "  %-18s %-36s %14.6g %-6s from %s\n", m.Module, m.Name, v, m.Unit, r.source[m.Name])
			out.Metrics[m.Name] = jsonMetric{v, m.Unit}
		}
		fmt.Fprintf(w, "self time per span name (%s, traced batches):\n", r.workload)
		var names []string
		for n := range r.self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-24s %12.3f s\n", n, r.self[n].Seconds())
		}
		if r.spansPath != "" {
			fmt.Fprintf(w, "spans: %s (%d)\n", r.spansPath, len(r.spans))
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
