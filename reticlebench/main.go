// Command reticlebench is Reticle's end-to-end benchmark. It drives an
// in-process reticle.NewServer through ServeHTTP, with no sockets, as
// one closed-loop client, checks every output against independent
// oracles, and prints one JSON result line. See README.md.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash reticlebench/run.sh --workload cold_compile --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"reticle"
)

// exploreJobs is the /explore worker bound. It is one, not nproc: with
// two workers, concurrent variants of one kernel recompute stages the
// memo has not stored yet (one pass stores 54-56 placements instead of
// 48), and how many varies from run to run, so the work a sweep does,
// and its CPU cost, is not repeatable.
const exploreJobs = 1

// A run sets up at least setupRuns times and for at least setupSeconds
// (at most setupMaxRuns times); setup_s is the median of their process
// CPU seconds. The cheap set-ups of cold_compile and explore_sweep take
// milliseconds, so one sample would be mostly scheduler jitter, and
// wall time on a shared host tracks CPU steal.
const (
	setupRuns    = 5
	setupSeconds = 1.0
	setupMaxRuns = 200
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
	workloadName := flag.String("workload", "", "cold_compile, edit_loop or explore_sweep")
	seed := flag.Int64("seed", 1, "seed for the corpus draw and request order")
	seconds := flag.Float64("seconds", 10, "how long the timed loop runs, in whole passes")
	traceFlag := flag.Int("trace", 0, "1 runs the traced, layer-by-layer run instead")
	root := flag.String("root", ".", "repository checkout holding examples/programs")
	spanFile := flag.String("span-file", "", "with --trace 1, write the recorded spans here as JSON lines")
	flag.Parse()

	e := &env{
		root: *root,
		seed: *seed,
		newHandler: func() (http.Handler, error) {
			return reticle.NewServer(reticle.ServerOptions{})
		},
	}
	var res result
	var err error
	if *traceFlag == 1 {
		res, err = runTraced(*workloadName, e, *seconds, *spanFile)
	} else {
		res, err = runTimed(*workloadName, e, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "reticlebench:", err)
		if res.Metrics == nil {
			os.Exit(2)
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "reticlebench:", jerr)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// window is the noise self-report of one timed loop.
type window struct {
	wall, cpu time.Duration
	steal     float64
	gcCycles  uint32
	allocMB   float64
}

func (w *window) add(o window) {
	w.wall += o.wall
	w.cpu += o.cpu
	w.steal += o.steal
	w.gcCycles += o.gcCycles
	w.allocMB += o.allocMB
}

func measure(loop func() error) (window, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	steal0, cpu0, t0 := stealSeconds(), cpuNow(), time.Now()
	err := loop()
	w := window{wall: time.Since(t0), cpu: cpuNow() - cpu0}
	if s := stealSeconds(); s >= 0 && steal0 >= 0 {
		w.steal = s - steal0
	}
	runtime.ReadMemStats(&ms1)
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	return w, err
}

// passes runs whole passes until the time is spent (or the workload's
// bound is reached) and returns how many ran.
func passes(w workload, r *runner, seconds float64) (int, error) {
	start := time.Now()
	n := 0
	for {
		if err := w.pass(r, n); err != nil {
			return n, err
		}
		n++
		if w.maxPasses() > 0 && n >= w.maxPasses() || time.Since(start).Seconds() >= seconds {
			return n, nil
		}
	}
}

// refClock samples the CPU time of refWork through a run, between
// requests. The CPU metrics are reported in units of its median. On the
// shared VM the bounds were measured on, the host shifts for minutes at
// a time into regimes where every instruction runs up to a quarter
// slower (a busy SMT sibling, steal), and process CPU time grows with
// it: the same cold_compile seeds read 8.1 or 10.3 CPU ms per request
// depending on the minute. A fixed Go computation that allocates,
// hashes, sorts and encodes like the compiler slows with the host, so
// the ratio holds across those regimes: three sets of ten
// cold_compile runs agreed to 2% where the medians of raw CPU sets
// moved by up to a quarter.
type refClock struct {
	ms   []float64
	last time.Time
}

// refEvery is how often, in wall time, the reference is sampled. Each
// sample costs about 12 ms of CPU, and single samples scatter by a
// quarter with the host's short bursts, so a run takes about a hundred.
const refEvery = 250 * time.Millisecond

func (c *refClock) maybe() {
	if c == nil || !c.last.IsZero() && time.Since(c.last) < refEvery {
		return
	}
	// The sample is the calling thread's CPU time with the collector
	// paused (SetGCPercent(-1) first waits out a cycle in progress): a
	// garbage collection of the server's heap, or its background workers
	// on the other CPU, would otherwise land in one sample and not the
	// next.
	gc := debug.SetGCPercent(-1)
	runtime.LockOSThread()
	c0 := threadCPU()
	refSink += refWork()
	d := threadCPU() - c0
	runtime.UnlockOSThread()
	debug.SetGCPercent(gc)
	c.ms = append(c.ms, float64(d.Nanoseconds())/1e6)
	c.last = time.Now()
}

var refSink int

type refRecord struct {
	Key  string            `json:"key"`
	Vals []int             `json:"vals"`
	Tags map[string]string `json:"tags"`
}

// refWork is the reference computation: it depends on no code of the
// repository, so no change to the compiler moves it.
func refWork() int {
	m := make(map[string]int)
	for i := 0; i < 20000; i++ {
		m["k"+strconv.Itoa(i*7919)] = i
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rs := make([]refRecord, 1000)
	for i := range rs {
		rs[i] = refRecord{Key: keys[i], Vals: []int{i, i + 1, i + 2}, Tags: map[string]string{"k": keys[i]}}
	}
	b, err := json.Marshal(rs)
	if err != nil {
		panic(err)
	}
	var back []refRecord
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return len(back) + len(keys) + int(sum[0])
}

// setupTimes sets the workload up repeatedly and returns each set-up's
// process CPU seconds and wall seconds. Every set-up starts from a
// collected heap, so a garbage collection left over from the previous
// one is not charged to it.
func setupTimes(w workload, e *env) (cpuS, wallS []float64, err error) {
	start := time.Now()
	for i := 0; i < setupMaxRuns && (i < setupRuns || time.Since(start).Seconds() < setupSeconds); i++ {
		runtime.GC()
		c0, t0 := cpuNow(), time.Now()
		if err := w.setup(e); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		cpuS = append(cpuS, (cpuNow() - c0).Seconds())
		wallS = append(wallS, time.Since(t0).Seconds())
	}
	runtime.GC()
	return cpuS, wallS, nil
}

// runTimed is the untraced run: every end-to-end metric comes from here.
func runTimed(name string, e *env, seconds float64) (result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return result{}, err
	}
	setups, setupWall, err := setupTimes(w, e)
	if err != nil {
		return result{}, err
	}
	rc := &refClock{}
	r := &runner{ref: rc}
	var n int
	win, err := measure(func() error {
		var perr error
		n, perr = passes(w, r, seconds)
		return perr
	})
	rss := peakRSSMB()
	if err != nil {
		return failed(len(r.ops)), err
	}
	if err := w.check(); err != nil {
		return failed(len(r.ops)), fmt.Errorf("oracle: %w", err)
	}

	var wall, cpu time.Duration
	byClass := map[string][]float64{}
	byKind := map[string][]float64{}
	var classes []string
	for _, o := range r.ops {
		wall += o.wall
		cpu += o.cpu
		ms := float64(o.wall.Nanoseconds()) / 1e6
		if _, ok := byClass[o.class]; !ok {
			classes = append(classes, o.class)
		}
		byClass[o.class] = append(byClass[o.class], ms)
		byKind[o.kind] = append(byKind[o.kind], ms)
	}
	var classMedians, classCPU []float64
	cpuByClass := map[string][]float64{}
	for _, o := range r.ops {
		cpuByClass[o.class] = append(cpuByClass[o.class], float64(o.cpu.Nanoseconds())/1e6)
	}
	for _, c := range classes {
		classMedians = append(classMedians, median(byClass[c]))
		classCPU = append(classCPU, median(cpuByClass[c]))
	}
	q := w.quality()
	attempted, failedOps := len(r.ops), 0
	if va, vf := w.variants(); va > 0 {
		attempted, failedOps = va, vf
	}

	fmt.Printf("workload=%s seed=%d passes=%d requests=%d gomaxprocs=%d explore_jobs=%d\n",
		name, e.seed, n, len(r.ops), runtime.GOMAXPROCS(0), exploreJobs)
	fmt.Printf("noise: wall_s=%.3f cpu_s=%.3f steal_s=%.2f gc_cycles=%d alloc_mb=%.1f gomaxprocs=%d\n",
		win.wall.Seconds(), win.cpu.Seconds(), win.steal, win.gcCycles, win.allocMB, runtime.GOMAXPROCS(0))
	if va, vf := w.variants(); va > 0 {
		fmt.Printf("operations: requests=%d failed=0 variants=%d failed_variants=%d (explore.Enumerate fault: bind=lut on vector kernels, vec=2 splits)\n",
			len(r.ops), va, vf)
	} else {
		fmt.Printf("operations: requests=%d failed=0\n", len(r.ops))
	}
	fmt.Printf("setup_s (process CPU): median=%.4f runs=%d first=%.4f; wall median=%.4f\n",
		median(setups), len(setups), setups[0], median(setupWall))
	ref := median(rc.ms)
	fmt.Printf("cpu: ms_per_op=%.4g latency_ms_geomean=%.4g; reference median=%.4gms samples=%d\n",
		float64(cpu.Nanoseconds())/1e6/float64(len(r.ops)), geomean(classCPU), ref, len(rc.ms))
	fmt.Printf("wall (reported, not bounded): ops_per_s=%.4g latency_ms_geomean=%.4g\n",
		float64(len(r.ops))/wall.Seconds(), geomean(classMedians))
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if k == "hit" || k == "renamed" {
			us := make([]float64, len(byKind[k]))
			for i, v := range byKind[k] {
				us[i] = v * 1000
			}
			fmt.Printf("latency %s: %s\n", k, tailLabel(us, "us"))
		} else {
			fmt.Printf("latency %s: %s\n", k, tailLabel(byKind[k], "ms"))
		}
	}
	for i, c := range classes {
		fmt.Printf("class %-34s p50=%.4gms cpu_p50=%.4gms n=%d\n", c, classMedians[i], classCPU[i], len(byClass[c]))
	}

	ops := float64(len(r.ops))
	return result{
		Correct:   true,
		Attempted: attempted,
		Failed:    failedOps,
		Metrics: map[string]metric{
			"setup_s":                 {median(setups), "s"},
			"cpu_per_op_ref":          {float64(cpu.Nanoseconds()) / 1e6 / ops / ref, "ref"},
			"cpu_latency_ref_geomean": {geomean(classCPU) / ref, "ref"},
			"peak_rss_mb":             {rss, "MB"},
			"critical_ns_geomean":     {geomean(q.criticalNs), "model-ns"},
			"luts_total":              {float64(q.luts), "count"},
			"dsps_total":              {float64(q.dsps), "count"},
		},
	}, nil
}

func failed(attempted int) result {
	return result{Correct: false, Attempted: max(attempted, 1), Failed: 0, Metrics: map[string]metric{}}
}

// perOp divides a total by an operation count, 0 when there were none.
func perOp(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}
