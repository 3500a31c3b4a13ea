package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"p2psize"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}, {0.25, 1.75},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 || xs[3] != 2 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %g", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %g, want NaN", got)
	}
	// p90 of 1..100 lies 10% of the way from 90 to 91.
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := quantile(hundred, 0.9); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %g, want 90.1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Start: 0, End: 100},
		// Two overlapping children (a worker pool) cover 10..50 once.
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},
		// A child running past its parent counts only inside it.
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the op's.
		{Name: "d", ID: 5, Parent: 3, Start: 25, End: 35},
		{Name: "op", ID: 6, Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"op": 50 + 60, "a": 20, "b": 20, "c": 30, "d": 10}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, got[k], v)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id, 5)
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer("p")
	outer := tr.begin("op", 0, 3)
	inner := tr.begin("m", outer, 3)
	tr.end(inner, 7)
	tr.end(outer, 0)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Msgs != 7 || s[1].Op != 3 || s[0].End < s[1].End {
		t.Fatalf("spans %+v", s)
	}
}

func TestManifestMatchesCatalog(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale; regenerate it with: go run . -manifest ../BENCHMARK.json")
	}
	var m map[string]any
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(m))
	}
	seen := map[string]bool{}
	for _, n := range append(e2eNames(), layerNames()...) {
		if seen[n] {
			t.Errorf("metric %s declared twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		if strings.Contains(w.why, "\n") || len(w.why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// fakeSession repeats its outputs with a period of two batches, except
// that batch 3 disagrees with batch 1.
type fakeSession struct{}

func (fakeSession) batch(_ *env, b int) (batchOut, error) {
	fp := uint64(b % 2)
	if b == 3 {
		fp = 99
	}
	return batchOut{wall: time.Millisecond, opsMs: []float64{1}, msgs: 10, fp: fp}, nil
}
func (fakeSession) layer(*env, []span) (map[string]float64, error) { return nil, nil }
func (fakeSession) close()                                         {}

func TestMeasureFlagsDisagreeingRepeats(t *testing.T) {
	w := workload{name: "fake", period: 2}
	ph, err := measure(&env{}, w, fakeSession{}, 0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.ops != 5 || ph.mismatches != 1 {
		t.Fatalf("ops %d mismatches %d, want 5 and 1", ph.ops, ph.mismatches)
	}
	if got := len(ph.fullPeriods(w.period)); got != 4 {
		t.Fatalf("%d batches in full periods, want 4", got)
	}
	// A phase always runs past its first period, whatever minOps says.
	if ph, err = measure(&env{}, w, fakeSession{}, 0, 1, nil); err != nil || ph.ops != 3 {
		t.Fatalf("ops %v, err %v; want 3", ph.ops, err)
	}
}

// TestOpClockIsTransparent pins the churn-monitor op wrapper: wrapped
// estimators yield a bit-identical MonitorResult, under both replay
// modes, because the wrapper forwards MutatesOverlay and so leaves the
// replay grouping as it was.
func TestOpClockIsTransparent(t *testing.T) {
	e := &env{seed: 5, sc: tinyScale, nproc: runtime.NumCPU()}
	s, err := setupChurn(e)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.(*churnSession)
	for _, replay := range []string{"", "shared"} {
		clocks, cadences, err := cs.roster(e, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		bare, _, err := cs.roster(e, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := make([]p2psize.Estimator, len(clocks))
		unwrapped := make([]p2psize.Estimator, len(bare))
		for i := range clocks {
			wrapped[i], unwrapped[i] = clocks[i], bare[i].inner
			if got, inner := clocks[i].MutatesOverlay(), clocks[i].inner.(interface{ MutatesOverlay() bool }).MutatesOverlay(); got != inner {
				t.Errorf("%s: wrapper MutatesOverlay %v, estimator %v", clocks[i].module, got, inner)
			}
		}
		opts := churnMonitorOptions(cadences)
		opts.Replay = replay
		a, err := p2psize.RunMonitor(cs.net, cs.tr, unwrapped, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p2psize.RunMonitor(cs.net, cs.tr, wrapped, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.Groups() != b.Groups() || monitorFingerprint(a) != monitorFingerprint(b) {
			t.Errorf("replay %q: wrapped run differs (groups %d vs %d)", replay, b.Groups(), a.Groups())
		}
		if replay == "shared" && b.Groups() != 2 {
			t.Errorf("shared replay used %d groups, want 2 (three observe-only estimators + aggregation)", b.Groups())
		}
		ops := 0
		for _, c := range clocks {
			ops += len(c.lat)
		}
		if want := 3*10 + 1; ops != want {
			t.Errorf("replay %q: %d ops clocked, want %d", replay, ops, want)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at the tiny scale, untraced
// twice and traced once: each must be correct, report every declared
// metric as a finite number, and fingerprint the same outputs on every
// run with the seed.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var fps []uint64
			for i := 0; i < 2; i++ {
				res, err := measureWorkload(w, &env{seed: 3, sc: tinyScale, nproc: runtime.NumCPU()}, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 {
					t.Fatalf("correct %v, %d failed, %d invalid, %d mismatches", res.correct, res.failed, res.invalid, res.mismatches)
				}
				for _, n := range e2eNames() {
					if !(res.metrics[n] > 0) {
						t.Errorf("%s = %g, want > 0", n, res.metrics[n])
					}
				}
				fps = append(fps, res.fingerprint)
				if i == 0 {
					checkReport(t, res, e2eNames())
				}
			}
			if fps[0] != fps[1] {
				t.Errorf("fingerprints differ across runs with one seed: %016x vs %016x", fps[0], fps[1])
			}
			res, err := measureWorkload(w, &env{seed: 3, sc: tinyScale, nproc: runtime.NumCPU()}, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.fingerprint != fps[0] {
				t.Fatalf("traced run: correct %v, fingerprint %016x want %016x", res.correct, res.fingerprint, fps[0])
			}
			for src := range res.source {
				if strings.HasSuffix(res.source[src], "/tiny") == (res.source[src] == w.name) {
					t.Errorf("metric %s has source %q", src, res.source[src])
				}
			}
			checkReport(t, res, layerNames())
		})
	}
}

// checkReport prints res and checks the report: it records GOMAXPROCS,
// and its last line is a JSON object with exactly the keys correct,
// attempted, failed and metrics, the metrics being exactly names.
func checkReport(t *testing.T, res *result, names []string) {
	t.Helper()
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "GOMAXPROCS") {
		t.Error("report does not record GOMAXPROCS")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(last, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(raw) != 4 {
		t.Errorf("result has %d keys, want 4", len(raw))
	}
	var js jsonResult
	if err := json.Unmarshal(last, &js); err != nil {
		t.Fatal(err)
	}
	if !js.Correct || js.Attempted < 1 || js.Failed != 0 {
		t.Errorf("result: correct %v, attempted %d, failed %d", js.Correct, js.Attempted, js.Failed)
	}
	if len(js.Metrics) != len(names) {
		t.Errorf("result has %d metrics, want %d", len(js.Metrics), len(names))
	}
	for _, n := range names {
		if _, ok := js.Metrics[n]; !ok {
			t.Errorf("result lacks metric %s", n)
		}
	}
}

func TestRunCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if code := run([]string{"--manifest", path}, &out, &errOut); code != 0 || out.Len() != 0 {
		t.Fatalf("manifest: exit %d, stdout %q, stderr %q", code, out.String(), errOut.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := manifestJSON(); !bytes.Equal(got, want) {
		t.Error("-manifest wrote something other than the catalog's manifest")
	}
}
